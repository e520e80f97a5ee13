// Command perfbench is the repository's end-to-end benchmark.  It starts a
// real `topoinv serve` with a disk store in a fresh directory, preloads a
// seeded corpus through the public API, and drives the server with
// open-loop HTTP traffic over loopback from this one process (2 connections).
// Every op is timed from its intended send time, and every served answer is
// checked against an in-process reference after the timed windows.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a separate
// run attributes each op's time to the repository's modules.  The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  See README.md in this directory for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string // path of the built topoinv binary
	work     string // directory for stores, logs and saved results
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is a result saved with its provenance under <work>/results.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Env      provenance `json:"env"`
	result
}

// provenance is the environment a result was measured in.  Results whose
// provenance differs are never compared.
type provenance struct {
	NProc            int     `json:"nproc"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	Conns            int     `json:"conns"`
	OfferedOpsS      float64 `json:"offered_ops_s"`
	TailPercentile   float64 `json:"tail_percentile"`
	Seconds          int     `json:"seconds"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	Fsync            string  `json:"fsync"`
	CacheCapacity    int     `json:"cache_capacity"`
	AnswerCapacity   int     `json:"answer_capacity"`
	EvalCapacity     int     `json:"evaluator_capacity"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest | ask-hot | ask-fresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "path of the built topoinv binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for server stores, logs and saved results")
	repeat := flag.Int("repeat", 0, "run the workload on seeds seed..seed+N-1 and print a steadiness report")
	report := flag.Bool("report", false, "print a steadiness report over the saved result files given as arguments")
	flag.Parse()
	// The client allocates a little per request; fewer collections keep its
	// pauses out of the tail it measures.
	debug.SetGCPercent(400)

	if *report {
		var recs []*record
		for _, p := range flag.Args() {
			rec, err := readRecord(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		if err := printReport(recs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if workloads[cfg.workload] == nil || cfg.server == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest|ask-hot|ask-fresh, --server, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if *repeat > 0 {
		var recs []*record
		for i := 0; i < *repeat; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			rec, err := run(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
		}
		if err := printReport(recs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(rec)
	line, _ := json.Marshal(rec.result)
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// run measures one workload once and saves the record under
// <work>/results.  A wrong answer or a failed guard yields a record with
// correct=false, not an error.
func run(cfg config) (*record, error) {
	w := workloads[cfg.workload]
	b, err := newBench(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	out := metrics{}
	var problems []error
	if err := b.measure(out, &problems); err != nil {
		return nil, err
	}

	// Every served answer is checked only now, with the server stopped.
	wrong := verify(b.checks)
	if err, ok := wrong[-1]; ok {
		problems = append(problems, fmt.Errorf("set-up preload: %w", err))
		delete(wrong, -1)
	}
	failed := b.failedOps
	for k, err := range wrong {
		if !b.failedOp[k] {
			failed++
		}
		if len(problems) < 5 {
			problems = append(problems, err)
		}
	}
	if cfg.trace == 0 {
		out.set("ok_ratio", float64(b.attempted-failed)/float64(b.attempted), "ratio")
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	rec := &record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: b.env,
		result: result{Correct: len(problems) == 0 && failed == 0, Attempted: b.attempted, Failed: failed, Metrics: out},
	}
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-trace%d-seed%d.json", cfg.workload, cfg.trace, cfg.seed))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(path, data, 0o644)
}

// measure runs set-up and the timed phases and fills out.  Failed guards
// and failed ops are appended to problems; other errors abort the run.
func (b *bench) measure(out metrics, problems *[]error) error {
	cfg, w := b.cfg, b.w
	setups := 3
	if cfg.trace == 1 {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		srv, d, err := b.setup()
		if err != nil {
			return err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			srv.stop()
		} else {
			b.srv = srv
		}
	}
	defer func() {
		if b.srv != nil {
			b.srv.stop()
		}
	}()
	b.cl = newClient(b.srv.base, conns)
	defer b.cl.close()
	if err := b.provenance(); err != nil {
		return err
	}
	if err := b.warm(); err != nil {
		return err
	}

	total := time.Duration(cfg.seconds) * time.Second
	if cfg.trace == 0 {
		out.set("setup_s", median(setupS), "s")
		fr, err := b.fixedRate(total*3/5, segments)
		if err != nil {
			return err
		}
		if err := w.guard(fr.delta, len(fr.all.samples)); err != nil {
			*problems = append(*problems, err)
		}
		var p50, tail, cpu []float64
		for i, seg := range fr.segments {
			lat := seg.latencies()
			p50 = append(p50, median(lat))
			tail = append(tail, quantile(lat, tailQ))
			cpu = append(cpu, fr.cpu[i]*1e3/float64(len(seg.samples)))
		}
		out.set("p50_ms", median(p50), "ms")
		out.set("tail_ms", median(tail), "ms")
		out.set("cpu_ms_per_op", median(cpu), "ms")
		rss, err := b.srv.rssMB()
		if err != nil {
			return err
		}
		out.set("server_rss_mb", rss, "MB")
		capacity, err := b.capacity(total*2/5, median(p50))
		if err != nil {
			return err
		}
		out.set("capacity_ops_s", capacity, "1/s")
		stored, err := b.srv.storeBytes()
		if err != nil {
			return err
		}
		out.set("store_bytes_per_input_byte", float64(stored)/float64(b.uploads.Load()), "B/B")
		return nil
	}

	plain, err := b.fixedRate(total/2, 1)
	if err != nil {
		return err
	}
	b.traced.Store(true)
	traced, err := b.fixedRate(total/2, 1)
	b.traced.Store(false)
	if err != nil {
		return err
	}
	if err := w.guard(traced.delta, len(traced.all.samples)); err != nil {
		*problems = append(*problems, err)
	}
	serverLayers(traced.delta, traced.all, out)
	out.set("bench.late_p99_ms", quantile(plain.all.lateness(), 0.99), "ms")
	out.set("bench.achieved_ops_s", plain.all.achieved(), "1/s")
	out.set("bench.trace_overhead_ms", median(traced.all.latencies())-median(plain.all.latencies()), "ms")
	b.srv.stop()
	b.srv = nil
	maps, formulas := b.layerInputs(traced.all)
	return moduleLayers(maps, formulas, out)
}

// segments splits the fixed-rate window of a --trace 0 run.  Latency and
// CPU metrics are medians over the segments, so a slowdown of the shared
// machine that covers less than half the window does not move them.
const segments = 8

// maxLate bounds how late a fixed-rate op may be sent before the window is
// abandoned as overloaded.
const maxLate = 30 * time.Second

// fixedRate is a fixed-rate window run as consecutive segments.
type fixedRate struct {
	all      window   // every segment's samples
	segments []window // in order
	cpu      []float64
	delta    delta // server stats over the whole window
}

// fixedRate runs the workload at its fixed rate for dur, as parts
// consecutive open-loop segments, reading the server's CPU time between
// them.  Unsent or failed ops count as attempted and failed.
func (b *bench) fixedRate(dur time.Duration, parts int) (fixedRate, error) {
	var fr fixedRate
	n := int(math.Round(b.w.rate * dur.Seconds()))
	first := b.take(n)
	if err := b.prepare(first, n); err != nil {
		return fr, err
	}
	before, err := b.cl.stats()
	if err != nil {
		return fr, err
	}
	for i := 0; i < parts; i++ {
		lo, hi := first+n*i/parts, first+n*(i+1)/parts
		cpu0, err := b.srv.cpuSeconds()
		if err != nil {
			return fr, err
		}
		seg := openLoop(b.opFunc(), lo, hi-lo, b.w.rate, conns, maxLate)
		cpu1, err := b.srv.cpuSeconds()
		if err != nil {
			return fr, err
		}
		b.count(seg)
		if len(seg.samples) == 0 {
			return fr, errors.New("no op completed in a measured segment")
		}
		fr.segments = append(fr.segments, seg)
		fr.cpu = append(fr.cpu, cpu1-cpu0)
		fr.all.samples = append(fr.all.samples, seg.samples...)
		fr.all.elapsed += seg.elapsed
		fr.all.scheduled += seg.scheduled
	}
	after, err := b.cl.stats()
	if err != nil {
		return fr, err
	}
	fr.delta = delta{before, after}
	return fr, nil
}

// count adds a window's ops to the run's attempted and failed totals.
// Scheduled ops never sent (the generator gave up on an unbounded backlog)
// count as attempted and failed.
func (b *bench) count(win window) {
	b.attempted += win.scheduled
	b.failedOps += win.scheduled - len(win.samples)
	for _, s := range win.samples {
		if !s.res.ok {
			b.failedOps++
			b.failedOp[s.op] = true
		}
	}
}

// capacitySegments splits the capacity measurement.  The capacity is the
// median over the segments, so a slowdown of the shared machine that covers
// less than half of it does not move the result.
const capacitySegments = 6

// capacity estimates the highest offered rate that meets the workload's
// latency limit at its tail percentile with no growing backlog: the
// saturation throughput of a closed loop on the client's connections, the
// same concurrency the open-loop generator uses.  A closed loop sends each
// op when the one before it on its connection completes, so it has no
// backlog by construction, its latency is the bare service time, and no
// higher rate can be sustained at that concurrency.  A segment whose tail
// latency misses the limit even so counts as capacity 0.  The capacity is
// the median of the segments' rates.
//
// An open-loop ladder of probes below saturation was tried instead and
// dropped: whether a short probe passed depended on the shared machine's
// hiccups during it, and the result jumped between ladder steps from run
// to run.
func (b *bench) capacity(budget time.Duration, serviceMS float64) (float64, error) {
	seg := budget / capacitySegments
	// Size each segment to last about seg at the service time seen in the
	// fixed-rate window.
	n := int(float64(conns)*ms(seg)/serviceMS) + 1
	limit := ms(b.w.limit)
	var rates []float64
	for i := 0; i < capacitySegments; i++ {
		first := b.take(n)
		if err := b.prepare(first, n); err != nil {
			return 0, err
		}
		win := closedLoop(b.opFunc(), first, n, conns)
		b.count(win)
		rate, tail := win.achieved(), quantile(win.latencies(), tailQ)
		fmt.Fprintf(os.Stderr, "perfbench: capacity segment %d: %.4g ops/s, p75 %.4g ms (limit %.4g ms)\n", i, rate, tail, limit)
		if tail > limit {
			rate = 0
		}
		rates = append(rates, rate)
	}
	return median(rates), nil
}

// layerInputs picks the maps and formulas a traced window actually sent,
// for the in-process module timings.
func (b *bench) layerInputs(win window) ([]*mapInput, []string) {
	inWin := map[int]bool{}
	for _, s := range win.samples {
		inWin[s.op] = true
	}
	var maps []*mapInput
	var formulas []string
	seenMap, seenF := map[string]bool{}, map[string]bool{}
	for _, c := range b.checks {
		if !inWin[c.op] {
			continue
		}
		if !seenMap[c.m.id] {
			seenMap[c.m.id] = true
			maps = append(maps, c.m)
		}
		if !seenF[c.formula] && len(formulas) < 64 {
			seenF[c.formula] = true
			formulas = append(formulas, c.formula)
		}
	}
	return maps, formulas
}

// provenance records the run's environment, reading cache capacities and
// build identity from the live server.
func (b *bench) provenance() error {
	st, err := b.cl.stats()
	if err != nil {
		return err
	}
	commit := st.Build.Revision
	if commit == "" {
		commit = "source:" + sourceDigest()
	}
	b.env = provenance{
		NProc: runtime.NumCPU(), ServerGOMAXPROCS: serverGOMAXPROCS, ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns: conns, OfferedOpsS: b.w.rate, TailPercentile: tailQ, Seconds: b.cfg.seconds,
		GoVersion: st.Build.GoVersion, Commit: commit, Fsync: "off",
		CacheCapacity: st.CacheCapacity, AnswerCapacity: st.AnswerCapacity, EvalCapacity: st.EvalCapacity,
	}
	return nil
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// printMetrics writes one line per metric, with its unit, and the
// provenance, ahead of the JSON result line.
func printMetrics(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  trace %d  attempted %d  failed %d  correct %v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	env, _ := json.Marshal(rec.Env)
	fmt.Printf("env %s\n", env)
}

// printReport prints, per metric, the median, the quartiles, the
// interquartile spread as a share of the median, and the max-min spread of
// the records.  It refuses records whose workload, trace mode or provenance
// differ: only the seed may change between compared runs.
func printReport(recs []*record) error {
	if len(recs) == 0 {
		return errors.New("report: no results")
	}
	for _, r := range recs[1:] {
		a := recs[0]
		if r.Workload != a.Workload || r.Trace != a.Trace || r.Env != a.Env {
			return fmt.Errorf("report: seed %d of %s was measured in another environment or mode than seed %d of %s; not comparing", r.Seed, r.Workload, a.Seed, a.Workload)
		}
	}
	values := map[string][]float64{}
	for _, r := range recs {
		for n, m := range r.Metrics {
			values[n] = append(values[n], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	env, _ := json.Marshal(recs[0].Env)
	fmt.Printf("workload %s  trace %d  runs %d\nenv %s\n", recs[0].Workload, recs[0].Trace, len(recs), env)
	fmt.Printf("  %-36s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, n := range names {
		v := values[n]
		q1, med, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("  %-36s %12.6g %12.6g %12.6g %9.4f %9.4f\n", n, med, q1, q3, (q3-q1)/math.Abs(med), (hi-lo)/math.Abs(med))
	}
	return nil
}

// quartiles is Python's statistics.quantiles(values, n=4) with its default
// "exclusive" method, which is how the benchmark's bounds are checked.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// sourceDigest identifies the source tree when no VCS revision is embedded
// in the server binary: a SHA-256 over the Go sources and module files of
// the working directory, outside hidden directories.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && strings.HasPrefix(info.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if info.Mode().IsRegular() && (strings.HasSuffix(path, ".go") || info.Name() == "go.mod" || info.Name() == "go.sum") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
