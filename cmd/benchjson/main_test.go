package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro/internal/sweep
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkImportValidation/quadratic/1000v-8         	       3	  71879190 ns/op
BenchmarkImportValidation/sweep/10000v-8            	       3	  40563681 ns/op
BenchmarkE1LandUseCompression-8                     	       1	 500000000 ns/op	        91.50 raw/inv
PASS
ok  	repro/internal/sweep	34.532s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Context) != 4 {
		t.Errorf("context lines = %d, want 4", len(rep.Context))
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "ImportValidation/quadratic/1000v" || r.Procs != 8 || r.Iterations != 3 || r.NsPerOp != 71879190 {
		t.Errorf("first result parsed as %+v", r)
	}
	if got := rep.Results[2].Metrics["raw/inv"]; got != 91.5 {
		t.Errorf("custom metric = %v, want 91.5", got)
	}
	if rep.Results[2].Name != "E1LandUseCompression" {
		t.Errorf("name = %q", rep.Results[2].Name)
	}
}

func TestParseSkipsGarbage(t *testing.T) {
	in := "Benchmark\nBenchmarkX-4 notanumber\nrandom line\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("garbage produced %d results", len(rep.Results))
	}
}

// TestParseGOMAXPROCS1 covers a GOMAXPROCS=1 run: Go prints no procs suffix,
// so a trailing "-N" belongs to the sub-benchmark name and must survive.
func TestParseGOMAXPROCS1(t *testing.T) {
	in := `pkg: repro
BenchmarkEngineBatch/workers-1         	     100	  3100000 ns/op
BenchmarkEngineBatch/workers-4         	     100	  3000000 ns/op
BenchmarkEngineInvariant/cold          	      10	 36000000 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"EngineBatch/workers-1", "EngineBatch/workers-4", "EngineInvariant/cold"}
	if len(rep.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(want))
	}
	for i, r := range rep.Results {
		if r.Name != want[i] || r.Procs != 0 {
			t.Errorf("result %d = %q procs %d, want %q procs 0", i, r.Name, r.Procs, want[i])
		}
	}
}

// TestParseSharedProcsSuffix: under GOMAXPROCS=4 every line carries "-4",
// which is stripped, while a sub-benchmark's own "-1" stays.
func TestParseSharedProcsSuffix(t *testing.T) {
	in := `BenchmarkEngineBatch/workers-1-4 	100	3100000 ns/op
BenchmarkEngineBatch/workers-4-4 	100	3000000 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"EngineBatch/workers-1", "EngineBatch/workers-4"}
	for i, r := range rep.Results {
		if r.Name != want[i] || r.Procs != 4 {
			t.Errorf("result %d = %q procs %d, want %q procs 4", i, r.Name, r.Procs, want[i])
		}
	}
}
