package main

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/codec"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/spatial"
	"repro/internal/workload"
)

// Every map the benchmark sends has one shape, landuse(1): a 4x2 grid of
// jittered parcels over 9 thematic classes, about 600 points.  Only the
// generator seed differs between maps.  Mixing shapes would make latency
// multimodal and put the quantiles on mode boundaries.

// mapInput is one generated map, encoded as the server receives it.
type mapInput struct {
	inst *spatial.Instance
	blob []byte // codec.EncodeInstance
	b64  string
	id   string // hex SHA-256 of blob: the server's content address
}

// mixSeed derives independent generator seeds from the run seed, a stream
// number and an index (splitmix64).
func mixSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// Generator streams: corpus maps, ingest maps and formula draws never share
// a seed.
const (
	streamCorpus = iota
	streamIngest
	streamFormulas
)

func makeMap(seed int64) (*mapInput, error) {
	p := workload.DefaultLandUse(1)
	p.Seed = seed
	inst, err := workload.LandUse(p)
	if err != nil {
		return nil, fmt.Errorf("landuse seed %d: %w", seed, err)
	}
	blob, err := codec.EncodeInstance(inst)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	return &mapInput{inst: inst, blob: blob, b64: base64.StdEncoding.EncodeToString(blob), id: hex.EncodeToString(sum[:])}, nil
}

// costModel predicts the work the tree-walk reference evaluator
// (pointfo.Evaluator.EvalPoint) does on one map: it replays the same
// left-to-right, short-circuiting walk over the same sample points, counting
// region-membership tests (each an exact point-in-polygon test in the real
// walk) and other steps.  Formula draws whose reference would be slow are
// rejected, so checking every answer stays cheap.
type costModel struct {
	n            int
	in, interior map[string][]bool
	xr, yr       []int
}

func newCostModel(s *pointfo.Sample) *costModel {
	n := len(s.Points)
	m := &costModel{n: n, in: map[string][]bool{}, interior: map[string][]bool{}, xr: make([]int, n), yr: make([]int, n)}
	for r, name := range s.Regions {
		in, interior := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			in[i] = s.In[r][i>>6]>>(uint(i)&63)&1 == 1
			interior[i] = s.Interior[r][i>>6]>>(uint(i)&63)&1 == 1
		}
		m.in[name], m.interior[name] = in, interior
	}
	for i, p := range s.Points {
		for _, q := range s.Points {
			if q.X.Less(p.X) {
				m.xr[i]++
			}
			if q.Y.Less(p.Y) {
				m.yr[i]++
			}
		}
	}
	return m
}

// Reference cost weights, measured on landuse(1): a membership test costs
// about 35µs in the tree walk, any other step well under 1µs.
const (
	containsCostUS = 35
	stepCostUS     = 0.5
)

// costUS returns the predicted tree-walk time of the sentence in µs, or
// ok=false once it passes limitUS.
func (m *costModel) costUS(f pointfo.PointFormula, limitUS float64) (float64, bool) {
	w := &costWalk{m: m, env: map[string]int{}, limit: limitUS}
	w.eval(f)
	return w.cost, !w.over
}

type costWalk struct {
	m     *costModel
	env   map[string]int
	cost  float64
	limit float64
	over  bool
}

func (w *costWalk) eval(f pointfo.PointFormula) bool {
	if w.over {
		return false
	}
	w.cost += stepCostUS
	if w.cost > w.limit {
		w.over = true
		return false
	}
	switch g := f.(type) {
	case pointfo.In:
		w.cost += containsCostUS
		return w.m.in[g.Region][w.env[g.Var]]
	case pointfo.InInterior:
		w.cost += containsCostUS
		return w.m.interior[g.Region][w.env[g.Var]]
	case pointfo.LessX:
		return w.m.xr[w.env[g.L]] < w.m.xr[w.env[g.R]]
	case pointfo.LessY:
		return w.m.yr[w.env[g.L]] < w.m.yr[w.env[g.R]]
	case pointfo.SamePoint:
		return w.env[g.L] == w.env[g.R]
	case pointfo.PNot:
		return !w.eval(g.F)
	case pointfo.PAnd:
		for _, s := range g.Fs {
			if !w.eval(s) {
				return false
			}
		}
		return true
	case pointfo.POr:
		for _, s := range g.Fs {
			if w.eval(s) {
				return true
			}
		}
		return false
	case pointfo.PImplies:
		return !w.eval(g.L) || w.eval(g.R)
	case pointfo.PExists:
		return w.quant(g.Vars, g.Body, true)
	case pointfo.PForall:
		return w.quant(g.Vars, g.Body, false)
	}
	w.over = true
	return false
}

func (w *costWalk) quant(vars []string, body pointfo.PointFormula, existential bool) bool {
	if len(vars) == 0 {
		return w.eval(body)
	}
	v := vars[0]
	defer delete(w.env, v)
	for i := 0; i < w.m.n && !w.over; i++ {
		w.env[v] = i
		r := w.quant(vars[1:], body, existential)
		if existential && r {
			return true
		}
		if !existential && !r {
			return false
		}
	}
	return !existential
}

// formulaGen draws random sentences of FO(P,<x,<y) over the landuse class
// names with an exact quantifier depth.  Level 1 binds its variable with a
// region atom; each deeper level links its variable to an outer one with an
// order atom, so every variable is used and the walk prunes.
type formulaGen struct {
	rng     *rand.Rand
	regions []string
}

var varNames = []string{"a", "b", "c", "d", "e", "f"}

func newFormulaGen(seed int64, schema *spatial.Schema) *formulaGen {
	return &formulaGen{rng: rand.New(rand.NewSource(seed)), regions: schema.Names()}
}

func (g *formulaGen) draw(depth int) pointfo.PointFormula { return g.quant(1, depth, nil) }

func (g *formulaGen) regionAtom(v string) pointfo.PointFormula {
	r := g.regions[g.rng.Intn(len(g.regions))]
	if g.rng.Intn(2) == 0 {
		return pointfo.In{Region: r, Var: v}
	}
	return pointfo.InInterior{Region: r, Var: v}
}

func (g *formulaGen) orderAtom(v, w string) pointfo.PointFormula {
	if g.rng.Intn(2) == 0 {
		v, w = w, v
	}
	if g.rng.Intn(2) == 0 {
		return pointfo.LessX{L: v, R: w}
	}
	return pointfo.LessY{L: v, R: w}
}

func (g *formulaGen) quant(level, depth int, bound []string) pointfo.PointFormula {
	v := varNames[level-1]
	var parts []pointfo.PointFormula
	if level == 1 || g.rng.Intn(3) == 0 {
		parts = append(parts, g.regionAtom(v))
	}
	if level > 1 {
		parts = append(parts, g.orderAtom(v, bound[g.rng.Intn(len(bound))]))
	}
	if level < depth {
		parts = append(parts, g.quant(level+1, depth, append(append([]string(nil), bound...), v)))
	} else if g.rng.Intn(2) == 0 {
		parts = append(parts, g.regionAtom(v))
	}
	if len(parts) > 1 && g.rng.Intn(4) == 0 {
		i := 1 + g.rng.Intn(len(parts)-1)
		parts[i] = pointfo.PNot{F: parts[i]}
	}
	vars := []string{v}
	if g.rng.Intn(3) != 0 {
		var body pointfo.PointFormula = pointfo.PAnd{Fs: parts}
		if len(parts) > 2 && g.rng.Intn(2) == 0 {
			body = pointfo.PAnd{Fs: []pointfo.PointFormula{parts[0], pointfo.POr{Fs: parts[1:]}}}
		} else if len(parts) == 1 {
			body = parts[0]
		}
		return pointfo.PExists{Vars: vars, Body: body}
	}
	var body pointfo.PointFormula = parts[0]
	switch len(parts) {
	case 1:
	case 2:
		body = pointfo.PImplies{L: parts[0], R: parts[1]}
	default:
		body = pointfo.PImplies{L: parts[0], R: pointfo.PAnd{Fs: parts[1:]}}
	}
	return pointfo.PForall{Vars: vars, Body: body}
}

// canonical returns the sentence's canonical text, checking it parses.
func canonical(f pointfo.PointFormula) (string, error) {
	text := queryl.Format(f)
	q, err := queryl.Parse(text)
	if err != nil {
		return "", fmt.Errorf("generated formula %q does not parse: %w", text, err)
	}
	return queryl.Format(q.Formula), nil
}
