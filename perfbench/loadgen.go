package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc runs operation k of a workload and reports its outcome.  It is
// called from several goroutines at once.
type opFunc func(k int) opResult

// opResult is what one operation reports back to the generator.
type opResult struct {
	ok bool // every request of the op returned 2xx with a well-formed body
	// askRTT is the client round trip of the op's ask request and askNS the
	// server-side latency_ns it reported; stages holds the ?debug=timings
	// engine stages (ns) when the ask was traced.
	askRTT time.Duration
	askNS  int64
	stages map[string]int64
}

// sample is one scheduled operation as the generator saw it.
type sample struct {
	op   int           // op index
	due  time.Duration // intended send time, from the window start
	late time.Duration // actual send time minus due
	lat  time.Duration // completion minus due: the latency the user saw
	res  opResult
}

// window is the outcome of one generator run.
type window struct {
	samples   []sample
	elapsed   time.Duration // window start to last completion, at least the scheduled span
	scheduled int           // ops the schedule held
}

// openLoop schedules ops first..first+n-1 at a fixed rate, evenly spaced,
// and runs them on conns workers.  Each op is timed from its intended send
// time, so a stall delays and is charged to every op queued behind it.
// Workers take ops in schedule order and never send one early.  If an op is sent more
// than maxLate after its due time the backlog is growing without bound: the
// run stops sending, and the unsent ops count as failures.
func openLoop(op opFunc, firstOp, n int, rate float64, conns int, maxLate time.Duration) window {
	period := time.Duration(float64(time.Second) / rate)
	dur := time.Duration(n) * period
	var next atomic.Int64
	var stop atomic.Bool
	results := make([]sample, n)
	sent := make([]bool, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * period
				sleepUntil(start.Add(due))
				at := time.Since(start)
				if at-due > maxLate {
					stop.Store(true)
					return
				}
				res := op(firstOp + i)
				results[i] = sample{op: firstOp + i, due: due, late: at - due, lat: time.Since(start) - due, res: res}
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	win := window{elapsed: max(time.Since(start), dur), scheduled: n}
	for i := range results {
		if sent[i] {
			win.samples = append(win.samples, results[i])
		}
	}
	return win
}

// spinMargin is how early sleepUntil wakes before spinning.
const spinMargin = 20 * time.Microsecond

// sleepUntil returns at t with a few µs of error.  time.Sleep cannot do this:
// the Go runtime rounds sub-millisecond sleeps up to ~1ms on Linux, which
// would dominate the latency of a sub-millisecond op timed from its intended
// send time.  So it blocks the thread in nanosleep, with the thread's timer
// slack (50µs by default) cut to 1ns, until spinMargin before t, then
// yields in a loop until t.  A short spin keeps the client's CPU use low at
// high rates, where it shares the machine with the server.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		// Both calls are best effort: a failed prctl leaves the default
		// slack, and EINTR only shortens the sleep, which the spin covers.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs ops first..first+n-1 back to back on conns workers: the
// saturation throughput of the server at that concurrency.
func closedLoop(op opFunc, first, n, conns int) window {
	var next atomic.Int64
	results := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := time.Since(start)
				res := op(first + i)
				results[i] = sample{op: first + i, due: at, lat: time.Since(start) - at, res: res}
			}
		}()
	}
	wg.Wait()
	return window{samples: results, elapsed: time.Since(start), scheduled: n}
}

// failures counts the window's ops that did not succeed, plus scheduled
// ops never sent.
func (w window) failures() int {
	bad := w.scheduled - len(w.samples)
	for _, s := range w.samples {
		if !s.res.ok {
			bad++
		}
	}
	return bad
}

// achieved is the completion rate over the window.
func (w window) achieved() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.samples)) / w.elapsed.Seconds()
}

// latencies returns the ops' latencies in ms.  A failed op counts as
// missing any latency limit, so it enters as +Inf.
func (w window) latencies() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = ms(s.lat)
		if !s.res.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// lateness returns how late each op was sent, in ms.
func (w window) lateness() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = ms(s.late)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics (the same rule as numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
