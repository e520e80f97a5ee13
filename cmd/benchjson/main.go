// Command benchjson converts `go test -bench` text output into a JSON
// report, so CI can archive benchmark results as BENCH_*.json artifacts and
// the asymptotic claims pinned by the benchmarks (e.g. quadratic-vs-sweep
// import validation) stay comparable across commits.
//
//	go test -run='^$' -bench=. -benchtime=1x ./... | benchjson -o BENCH_ci.json
//
// Each benchmark line
//
//	BenchmarkImportValidation/sweep/10000v-8   3   40563681 ns/op   12 extra/op
//
// becomes
//
//	{"name":"ImportValidation/sweep/10000v","procs":8,"iterations":3,
//	 "ns_per_op":40563681,"metrics":{"extra/op":12}}
//
// Non-benchmark lines (pkg headers, PASS/ok) pass through into the report's
// "context" list, preserving goos/goarch/cpu provenance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Context []string      `json:"context,omitempty"`
	Results []benchResult `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
}

func parse(sc *bufio.Scanner) (*report, error) {
	rep := &report{}
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
			strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:"):
			rep.Context = append(rep.Context, line)
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	stripProcs(rep.Results)
	return rep, sc.Err()
}

// stripProcs removes the GOMAXPROCS suffix from the result names.  Go
// appends "-N" to every benchmark name when GOMAXPROCS is N > 1 and nothing
// when it is 1, so a trailing "-N" is the procs suffix only when every
// result line of the run ends in the same one; otherwise (a GOMAXPROCS=1
// run, where "workers-1" and "workers-4" are sub-benchmark names) the names
// are kept whole.
func stripProcs(results []benchResult) {
	procs := -1
	for _, r := range results {
		p, ok := procsSuffix(r.Name)
		if !ok || (procs >= 0 && p != procs) {
			return
		}
		procs = p
	}
	for i := range results {
		r := &results[i]
		r.Name = strings.TrimSuffix(r.Name, "-"+strconv.Itoa(procs))
		r.Procs = procs
	}
}

// procsSuffix returns N when name ends in "-N".
func procsSuffix(name string) (int, bool) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0, false
	}
	p, err := strconv.Atoi(name[i+1:])
	return p, err == nil
}

// parseBenchLine parses one benchmark result line.  The shape is
// "BenchmarkName[-procs] N [value unit]..." with whitespace-separated
// fields; unparsable lines are skipped rather than failing the report.  The
// name keeps any procs suffix; parse strips it once the whole run is read.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return benchResult{}, false
	}
	r := benchResult{Name: strings.TrimPrefix(fields[0], "Benchmark")}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}
