package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// stubServer serves one request at a time, like a server whose single
// resource is busy, and holds the request for op stallOp for stall.
func stubServer(stallOp int, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if k, _ := strconv.Atoi(r.URL.Query().Get("k")); k == stallOp {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "{}")
	}))
}

func stubOp(c *client) opFunc {
	return func(k int) opResult {
		return opResult{ok: c.do("GET", "/?k="+strconv.Itoa(k), nil, nil) == nil}
	}
}

// TestOpenLoopChargesStall checks that a single server stall shows up in
// the latency of every op queued behind it, timed from its intended send
// time, and in how late the generator ran.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate    = 100.0
		stallOp = 50
		stall   = 200 * time.Millisecond
	)
	srv := stubServer(stallOp, stall)
	defer srv.Close()
	c := newClient(srv.URL, conns)
	defer c.close()

	win := openLoop(stubOp(c), 0, 2*rate, rate, conns, 10*time.Second)
	if f := win.failures(); f != 0 {
		t.Fatalf("%d ops failed", f)
	}
	period := time.Duration(float64(time.Second) / rate)
	stallDue := time.Duration(stallOp) * period
	queued := 0
	for _, s := range win.samples {
		if s.op < stallOp || s.due >= stallDue+stall {
			continue
		}
		// The op was due while the server stalled: it cannot complete
		// before the stall ends.
		queued++
		if want := stallDue + stall - s.due - 5*time.Millisecond; s.lat < want {
			t.Errorf("op %d due %v: latency %v, want >= %v", s.op, s.due, s.lat, want)
		}
	}
	if want := int(stall / period); queued < want {
		t.Errorf("%d ops queued behind the stall, want %d", queued, want)
	}
	if late := quantile(win.lateness(), 0.99); late < ms(stall)/2 {
		t.Errorf("lateness p99 %.1fms, want >= %.1fms: the generator hid the stall", late, ms(stall)/2)
	}
}

// TestOpenLoopKeepsRate checks that at low load the generator achieves the
// offered rate and sends on time.
func TestOpenLoopKeepsRate(t *testing.T) {
	srv := stubServer(-1, 0)
	defer srv.Close()
	c := newClient(srv.URL, conns)
	defer c.close()

	const rate = 200.0
	win := openLoop(stubOp(c), 0, rate, rate, conns, 10*time.Second)
	if f := win.failures(); f != 0 {
		t.Fatalf("%d ops failed", f)
	}
	if got := win.achieved(); got < 0.99*rate || got > 1.01*rate {
		t.Errorf("achieved %.2f ops/s at an offered %.0f", got, rate)
	}
	if late := quantile(win.lateness(), 0.5); late > 1 {
		t.Errorf("median lateness %.3fms at low load, want < 1ms", late)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, med, q3 := quartiles(xs); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
