package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pointfo"
)

// workloadDef is one traffic mix.  Every workload preloads the same kind of
// seeded corpus during set-up; they differ in the op they time.
type workloadDef struct {
	name string
	// rate is the fixed offered rate of the measured window, at most ~40% of
	// the closed-loop saturation rate this benchmark measures at the parent
	// commit on a 2-vCPU box (ingest ~22, ask-fresh ~220, ask-hot ~7300
	// ops/s), so queueing does not amplify the tail.  ask-hot runs at 3000
	// ops/s rather than lower: at 1000 ops/s the vCPUs idle between asks,
	// and waking them costs a variable share of a 0.3ms round trip, which
	// doubled its p75 in some runs.
	rate float64
	// limit is the latency limit at the tail percentile that each capacity
	// segment must meet: several times the op's median.
	limit time.Duration
	input func(b *bench, k int) (opInput, error)
	op    func(b *bench, k int) opResult
	// guard fails the run if the workload stopped measuring what it claims.
	guard func(d delta, ops int) error
}

var workloads = map[string]*workloadDef{
	"ingest": {
		name: "ingest", rate: 8, limit: 400 * time.Millisecond,
		input: (*bench).ingestInput, op: (*bench).ingestOp,
		guard: func(d delta, ops int) error {
			if c := d.stat(func(s *stats) float64 { return s.Computes }); c != float64(ops) {
				return fmt.Errorf("ingest: %v invariant computations for %d ops, want exactly one per op", c, ops)
			}
			return nil
		},
	},
	"ask-hot": {
		name: "ask-hot", rate: 3000, limit: 10 * time.Millisecond,
		input: (*bench).hotInput, op: (*bench).askOp,
		guard: func(d delta, ops int) error {
			if r := d.answerHitRatio(); r < 0.99 {
				return fmt.Errorf("ask-hot: answer-cache hit ratio %.4f, want >= 0.99", r)
			}
			return nil
		},
	},
	"ask-fresh": {
		name: "ask-fresh", rate: 60, limit: 50 * time.Millisecond,
		input: (*bench).freshInput, op: (*bench).askOp,
		guard: func(d delta, ops int) error {
			if h := d.stat(func(s *stats) float64 { return s.AnswerHits }); h != 0 {
				return fmt.Errorf("ask-fresh: %v answer-cache hits, want 0", h)
			}
			if r := d.evaluatorHitRatio(); r != 1 {
				return fmt.Errorf("ask-fresh: evaluator-cache hit ratio %.4f, want 1", r)
			}
			return nil
		},
	},
}

// tailQ is the reported tail percentile, p75 on every workload: the
// highest one that stays steady from run to run on a shared 2-vCPU
// machine, where scheduling hiccups of a few ms reach 10-25% of the
// sub-millisecond asks in a bad minute (ask-hot's p90 moved from 0.43 to
// 0.95 ms between two runs of one seed while its p75 moved from 0.37 to
// 0.43 ms).
const tailQ = 0.75

// Corpus and input sizes.
const (
	corpusSize   = 24   // maps preloaded by every set-up; fits every cache
	hotFormulas  = 8    // ask-hot's fixed formula set, asked of every corpus map
	conns        = 2    // client connections (= nproc)
	refBudgetUS  = 3000 // predicted tree-walk reference time allowed per drawn formula
	warmFormula  = "exists a . in(class00, a)"
	maxDrawTries = 500
)

// bench holds one run's inputs, its live server and every answer to verify.
type bench struct {
	cfg    config
	w      *workloadDef
	corpus []*corpusMap
	srv    *server
	cl     *client
	traced atomic.Bool
	env    provenance

	// Generator phases run one at a time; these are touched between them.
	nextOp    int // first op index of the next phase
	attempted int
	failedOps int
	failedOp  map[int]bool // ops that failed in flight, by index

	hot []opInput // ask-hot: the (map, formula) working set in send order

	mu      sync.Mutex
	gen     *formulaGen     // formula draws for ask-hot and ask-fresh
	seen    map[string]bool // canonical forms already sent
	inputs  map[int]opInput
	checks  []check
	uploads atomic.Int64 // bytes of instance blobs uploaded to the newest server
}

// corpusMap is a preloaded map with what the reference and cost model need.
type corpusMap struct {
	*mapInput
	model  *costModel
	sample *pointfo.Sample
}

// check is one served answer to verify after the run: an ask's Boolean and,
// for ingest, the invariant's cell counts.
type check struct {
	op      int
	m       *mapInput
	sample  *pointfo.Sample // nil: build from m
	formula string
	answer  bool
	cells   *invariantCounts
}

type invariantCounts struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	Faces    int `json:"faces"`
	Cells    int `json:"cells"`
}

type askRequest struct {
	ID       string `json:"id"`
	Formula  string `json:"formula"`
	Strategy string `json:"strategy"`
}

type stageTiming struct {
	Stage      string        `json:"stage"`
	DurationNS int64         `json:"duration_ns"`
	Children   []stageTiming `json:"children"`
}

type askResponse struct {
	Answer    bool         `json:"answer"`
	LatencyNS int64        `json:"latency_ns"`
	Timings   *stageTiming `json:"timings"`
}

func newBench(cfg config, w *workloadDef) (*bench, error) {
	b := &bench{cfg: cfg, w: w, failedOp: map[int]bool{}, seen: map[string]bool{}, inputs: map[int]opInput{}}
	for j := 0; j < corpusSize; j++ {
		m, err := makeMap(mixSeed(cfg.seed, streamCorpus, j))
		if err != nil {
			return nil, err
		}
		s, err := pointfo.BuildSample(m.inst)
		if err != nil {
			return nil, err
		}
		b.corpus = append(b.corpus, &corpusMap{mapInput: m, model: newCostModel(s), sample: s})
	}
	b.gen = newFormulaGen(mixSeed(cfg.seed, streamFormulas, 0), b.corpus[0].inst.Schema())
	if w.name == "ask-hot" {
		if err := b.makeHotSet(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// makeHotSet draws ask-hot's formulas (depths 1-3) and lays out every
// (map, formula) pair in a seeded order that the ops cycle through.
func (b *bench) makeHotSet() error {
	for i := 0; i < hotFormulas; i++ {
		text, err := b.drawCheap(1+i%3, b.corpus)
		if err != nil {
			return err
		}
		for _, m := range b.corpus {
			b.hot = append(b.hot, opInput{m: m.mapInput, sample: m.sample, formula: text})
		}
	}
	rng := rand.New(rand.NewSource(mixSeed(b.cfg.seed, streamFormulas, 1)))
	rng.Shuffle(len(b.hot), func(i, j int) { b.hot[i], b.hot[j] = b.hot[j], b.hot[i] })
	return nil
}

// drawCheap draws a not-yet-seen sentence of the given depth whose tree-walk
// reference stays within budget on every listed map.  Callers hold b.mu or
// run before the server starts.
func (b *bench) drawCheap(depth int, maps []*corpusMap) (string, error) {
	for try := 0; try < maxDrawTries; try++ {
		f := b.gen.draw(depth)
		ok := true
		for _, m := range maps {
			if _, fits := m.model.costUS(f, refBudgetUS); !fits {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		text, err := canonical(f)
		if err != nil {
			return "", err
		}
		if b.seen[text] {
			continue
		}
		b.seen[text] = true
		return text, nil
	}
	return "", fmt.Errorf("no depth-%d formula within the reference budget after %d draws", depth, maxDrawTries)
}

// setup starts a fresh server and preloads the corpus through the public
// API: each map is uploaded, then asked one auto query, which computes and
// stores its invariant and compiles its evaluator.  It returns the time from
// spawn to the last preload answer.
func (b *bench) setup() (*server, time.Duration, error) {
	start := time.Now()
	b.uploads.Store(0)
	srv, err := startServer(b.cfg.server, b.cfg.work)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(srv.base, 1)
	defer cl.close()
	for _, m := range b.corpus {
		if err := b.upload(cl, m.mapInput); err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
		var resp askResponse
		if err := cl.do("POST", "/v1/ask", askRequest{ID: m.id, Formula: warmFormula, Strategy: "auto"}, &resp); err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
		b.addCheck(check{op: -1, m: m.mapInput, sample: m.sample, formula: warmFormula, answer: resp.Answer})
	}
	return srv, time.Since(start), nil
}

func (b *bench) upload(cl *client, m *mapInput) error {
	var resp struct {
		ID string `json:"id"`
	}
	if err := cl.do("POST", "/v1/instances", map[string]string{"data": m.b64}, &resp); err != nil {
		return err
	}
	if resp.ID != m.id {
		return fmt.Errorf("server content address %s, want %s", resp.ID, m.id)
	}
	b.uploads.Add(int64(len(m.blob)))
	return nil
}

func (b *bench) addCheck(c check) {
	b.mu.Lock()
	b.checks = append(b.checks, c)
	b.mu.Unlock()
}

// take reserves n op indices for a generator phase.
func (b *bench) take(n int) int {
	k := b.nextOp
	b.nextOp += n
	return k
}

// ask sends one auto-strategy ask and returns the served answer.
func (b *bench) ask(m *mapInput, formula string) (opResult, bool) {
	path := "/v1/ask"
	if b.traced.Load() {
		path += "?debug=timings"
	}
	var resp askResponse
	t := time.Now()
	err := b.cl.do("POST", path, askRequest{ID: m.id, Formula: formula, Strategy: "auto"}, &resp)
	rtt := time.Since(t)
	if err != nil {
		return opResult{}, false
	}
	return opResult{ok: true, askRTT: rtt, askNS: resp.LatencyNS, stages: stagesOf(resp.Timings)}, resp.Answer
}

func stagesOf(t *stageTiming) map[string]int64 {
	if t == nil {
		return nil
	}
	out := map[string]int64{}
	for _, c := range t.Children {
		out[c.Stage] += c.DurationNS
	}
	return out
}

// opInput is what one op sends.  Inputs are made before the phase that
// times them (see prepare), so generating them never counts as latency.
type opInput struct {
	m       *mapInput
	sample  *pointfo.Sample // the tree walk's sample for corpus maps; nil for ingest
	formula string
}

// hotInput is the next pair of ask-hot's fixed working set.
func (b *bench) hotInput(k int) (opInput, error) { return b.hot[k%len(b.hot)], nil }

// freshInput is a never-sent sentence of depth 2-5 on a random corpus map.
// Called with b.mu held, in op order, so the draws are deterministic.
func (b *bench) freshInput(k int) (opInput, error) {
	rng := rand.New(rand.NewSource(mixSeed(b.cfg.seed, streamFormulas, 2+k)))
	m := b.corpus[rng.Intn(len(b.corpus))]
	text, err := b.drawCheap(2+rng.Intn(4), []*corpusMap{m})
	return opInput{m: m.mapInput, sample: m.sample, formula: text}, err
}

// ingestInput is a never-seen map and a depth-1 sentence to ask it.
func (b *bench) ingestInput(k int) (opInput, error) {
	m, err := makeMap(mixSeed(b.cfg.seed, streamIngest, k))
	if err != nil {
		return opInput{}, err
	}
	text, err := canonical(newFormulaGen(mixSeed(b.cfg.seed, streamFormulas, -1-k), m.inst.Schema()).draw(1))
	return opInput{m: m, formula: text}, err
}

// input returns op k's input, making it now only if a phase ran more ops
// than were prepared.
func (b *bench) input(k int) (opInput, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if in, ok := b.inputs[k]; ok {
		return in, nil
	}
	in, err := b.w.input(b, k)
	if err == nil {
		b.inputs[k] = in
	}
	return in, err
}

// prepare makes the inputs of ops [first, first+n) ahead of a phase.
func (b *bench) prepare(first, n int) error {
	for k := first; k < first+n; k++ {
		if _, err := b.input(k); err != nil {
			return err
		}
	}
	return nil
}

// askOp asks op k's sentence of its corpus map.
func (b *bench) askOp(k int) opResult {
	in, err := b.input(k)
	if err != nil {
		return opResult{}
	}
	r, answer := b.ask(in.m, in.formula)
	if r.ok {
		b.addCheck(check{op: k, m: in.m, sample: in.sample, formula: in.formula, answer: answer})
	}
	return r
}

// ingestOp uploads a never-seen map, asks it one depth-1 auto query (the
// first answer: this computes the invariant and compiles the evaluator),
// reads the invariant's cell counts, and unloads the map so the registry
// does not grow with run length.
func (b *bench) ingestOp(k int) opResult {
	in, err := b.input(k)
	if err != nil {
		return opResult{}
	}
	m := in.m
	if err := b.upload(b.cl, m); err != nil {
		return opResult{}
	}
	r, answer := b.ask(m, in.formula)
	if !r.ok {
		return r
	}
	var counts invariantCounts
	if err := b.cl.do("GET", "/v1/instances/"+url.PathEscape(m.id)+"/invariant", nil, &counts); err != nil {
		return opResult{}
	}
	if err := b.cl.do("DELETE", "/v1/instances/"+url.PathEscape(m.id), nil, nil); err != nil {
		return opResult{}
	}
	b.addCheck(check{op: k, m: m, formula: in.formula, answer: answer, cells: &counts})
	return r
}

// warm runs a second of untimed traffic at the workload's rate, so
// first-run effects (connection set-up, page faults, lazy runtime state) stay
// out of the measured window.  For ask-hot it first asks every pair of the
// working set once (consecutive ops cycle through it), so every later ask is
// an answer-cache hit.
func (b *bench) warm() error {
	n := len(b.hot) + int(b.w.rate) + 1
	first := b.take(n)
	if err := b.prepare(first, n); err != nil {
		return err
	}
	win := openLoop(b.opFunc(), first, n, b.w.rate, conns, maxLate)
	b.count(win)
	if f := win.failures(); f > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed", f, win.scheduled)
	}
	return nil
}

func (b *bench) opFunc() opFunc {
	return func(k int) opResult { return b.w.op(b, k) }
}
