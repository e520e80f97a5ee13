// Package pointfo implements the spatial query languages of the paper:
// FO(R,<) — first-order logic over the reals with order and the region
// predicates viewed as binary relations — and its point-based variant
// FO(P,<x,<y), whose variables range over points of the plane.
//
// By [PSV99] the two languages express exactly the same topological
// properties, and the paper's translations take the topological fragment
// FOtop as input.  The evaluator here targets that topological fragment: a
// sentence is evaluated by letting its quantifiers range over a finite set of
// representative points, one per cell of the maximum topological cell
// decomposition of the instance (vertex points, edge midpoints, face
// representatives, plus points beyond the bounding box for the exterior).
// For topological sentences — whose truth only depends on which cells of the
// decomposition are populated by witnesses, not on metric or coordinate-order
// relationships between distinct witnesses — this evaluation is exact; this
// is the fragment all examples, experiments and translations in this
// repository use.  For non-topological sentences the evaluator computes the
// sentence's value on the representative sample, which corresponds to the
// topological-closure semantics discussed in Remark 4.3 of the paper.
package pointfo

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arrangement"
	"repro/internal/geom"
	"repro/internal/rat"
	"repro/internal/spatial"
)

// PointFormula is a formula of FO(P, <x, <y).  Variables denote points.
type PointFormula interface {
	isPointFormula()
	String() string
}

// In asserts that the point variable belongs to the named region.
type In struct {
	Region string
	Var    string
}

// LessX asserts that the x-coordinate of L is smaller than that of R.
type LessX struct{ L, R string }

// LessY asserts that the y-coordinate of L is smaller than that of R.
type LessY struct{ L, R string }

// SamePoint asserts that two point variables denote the same point.
type SamePoint struct{ L, R string }

// PNot, PAnd, POr, PImplies are the Boolean connectives.
type PNot struct{ F PointFormula }

// PAnd is conjunction.
type PAnd struct{ Fs []PointFormula }

// POr is disjunction.
type POr struct{ Fs []PointFormula }

// PImplies is implication.
type PImplies struct{ L, R PointFormula }

// PExists existentially quantifies point variables.
type PExists struct {
	Vars []string
	Body PointFormula
}

// PForall universally quantifies point variables.
type PForall struct {
	Vars []string
	Body PointFormula
}

func (In) isPointFormula()        {}
func (LessX) isPointFormula()     {}
func (LessY) isPointFormula()     {}
func (SamePoint) isPointFormula() {}
func (PNot) isPointFormula()      {}
func (PAnd) isPointFormula()      {}
func (POr) isPointFormula()       {}
func (PImplies) isPointFormula()  {}
func (PExists) isPointFormula()   {}
func (PForall) isPointFormula()   {}

func (f In) String() string        { return fmt.Sprintf("%s(%s)", f.Region, f.Var) }
func (f LessX) String() string     { return fmt.Sprintf("%s <x %s", f.L, f.R) }
func (f LessY) String() string     { return fmt.Sprintf("%s <y %s", f.L, f.R) }
func (f SamePoint) String() string { return fmt.Sprintf("%s = %s", f.L, f.R) }
func (f PNot) String() string      { return "¬(" + f.F.String() + ")" }
func (f PAnd) String() string      { return joinPoint(f.Fs, " ∧ ") }
func (f POr) String() string       { return joinPoint(f.Fs, " ∨ ") }
func (f PImplies) String() string  { return "(" + f.L.String() + " → " + f.R.String() + ")" }
func (f PExists) String() string   { return "∃" + strings.Join(f.Vars, ",") + "." + f.Body.String() }
func (f PForall) String() string   { return "∀" + strings.Join(f.Vars, ",") + "." + f.Body.String() }

func joinPoint(fs []PointFormula, sep string) string {
	if len(fs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// QuantifierDepth returns the quantifier depth (number of nested quantified
// variables) of the formula.
func QuantifierDepth(f PointFormula) int {
	switch g := f.(type) {
	case In, InInterior, LessX, LessY, SamePoint:
		return 0
	case PNot:
		return QuantifierDepth(g.F)
	case PAnd:
		m := 0
		for _, s := range g.Fs {
			if d := QuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case POr:
		m := 0
		for _, s := range g.Fs {
			if d := QuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case PImplies:
		l, r := QuantifierDepth(g.L), QuantifierDepth(g.R)
		if l > r {
			return l
		}
		return r
	case PExists:
		return len(g.Vars) + QuantifierDepth(g.Body)
	case PForall:
		return len(g.Vars) + QuantifierDepth(g.Body)
	default:
		panic(fmt.Sprintf("pointfo: unknown formula %T", f))
	}
}

// Size returns the number of AST nodes.
func Size(f PointFormula) int {
	switch g := f.(type) {
	case In, InInterior, LessX, LessY, SamePoint:
		return 1
	case PNot:
		return 1 + Size(g.F)
	case PAnd:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case POr:
		n := 1
		for _, s := range g.Fs {
			n += Size(s)
		}
		return n
	case PImplies:
		return 1 + Size(g.L) + Size(g.R)
	case PExists:
		return 1 + len(g.Vars) + Size(g.Body)
	case PForall:
		return 1 + len(g.Vars) + Size(g.Body)
	default:
		panic(fmt.Sprintf("pointfo: unknown formula %T", f))
	}
}

// --- evaluation --------------------------------------------------------------

// Sample is the finite set of representative points used to evaluate
// quantifiers: one witness per cell of the maximum topological cell
// decomposition plus exterior witnesses.
//
// Alongside the points it carries the membership matrix: one closed-region
// and one interior column per region, read straight off each point's cell
// sign class during sampling.  Every sample point is a cell representative,
// and a cell lies inside a single sign class, so the bits answer In /
// InInterior atoms exactly — no point-in-region geometry is ever consulted
// again once the sample exists.
type Sample struct {
	Points []geom.Point
	// Regions lists the instance's region names in sorted order; it indexes
	// the matrix columns below.
	Regions []string
	// In[r] has bit i set iff Points[i] belongs to the closed region
	// Regions[r] (cell sign Interior or Boundary).
	In []bitset
	// Interior[r] has bit i set iff Points[i] lies in the topological
	// interior of Regions[r] (cell sign Interior).
	Interior []bitset
}

// BuildSample computes the representative sample of the instance.
func BuildSample(inst *spatial.Instance) (*Sample, error) {
	cx, err := arrangement.Build(inst)
	if err != nil {
		return nil, err
	}
	return SampleFromComplex(cx), nil
}

// SampleFromComplex derives the representative sample — points and
// membership matrix — from an existing cell complex.
func SampleFromComplex(cx *arrangement.Complex) *Sample {
	s := &Sample{}
	if cx.Schema != nil {
		s.Regions = cx.SortedRegionNames()
	}
	// Signs are collected per point first (cell count is only known after
	// dedup), then packed into columns.
	var signs []map[string]arrangement.Sign
	seen := map[string]bool{}
	add := func(p geom.Point, sign map[string]arrangement.Sign) {
		if !seen[p.Key()] {
			seen[p.Key()] = true
			s.Points = append(s.Points, p)
			signs = append(signs, sign)
		}
	}
	for _, v := range cx.Vertices {
		add(v.Point, v.Sign)
	}
	for _, e := range cx.Edges {
		add(e.Midpoint(), e.Sign)
	}
	for _, f := range cx.Faces {
		add(f.Rep, f.Sign)
	}
	if len(s.Points) == 0 {
		// Degenerate all-empty instance: one exterior witness, member of
		// nothing (the nil sign map below reads as Exterior everywhere).
		add(geom.Pt(0, 0), nil)
	}
	n := len(s.Points)
	s.In = make([]bitset, len(s.Regions))
	s.Interior = make([]bitset, len(s.Regions))
	for r, name := range s.Regions {
		in, interior := newBitset(n), newBitset(n)
		for i, sign := range signs {
			switch sign[name] {
			case arrangement.Interior:
				in.set(i)
				interior.set(i)
			case arrangement.Boundary:
				in.set(i)
			}
		}
		s.In[r], s.Interior[r] = in, interior
	}
	return s
}

// regionIndex returns the matrix column of the named region, or -1.
func (s *Sample) regionIndex(name string) int {
	for i, r := range s.Regions {
		if r == name {
			return i
		}
	}
	return -1
}

// Evaluator evaluates point-language sentences on one instance by walking
// the formula tree.  It is the reference semantics: the fallback outside the
// compiled fragment, and the fuzz oracle FuzzCompiledVsTreeEval checks the
// compiled evaluator against.
type Evaluator struct {
	inst   *spatial.Instance
	sample *Sample
}

// NewEvaluator prepares an evaluator for the instance (building its cell
// decomposition once).
func NewEvaluator(inst *spatial.Instance) (*Evaluator, error) {
	s, err := BuildSample(inst)
	if err != nil {
		return nil, err
	}
	return &Evaluator{inst: inst, sample: s}, nil
}

// NewEvaluatorWith pairs an instance with an already-built sample, skipping
// the arrangement construction.  The sample must belong to inst.
func NewEvaluatorWith(inst *spatial.Instance, s *Sample) *Evaluator {
	return &Evaluator{inst: inst, sample: s}
}

// SampleSize returns the number of representative points used.
func (ev *Evaluator) SampleSize() int { return len(ev.sample.Points) }

// EvalPoint evaluates an FO(P,<x,<y) sentence (or a formula under env).
func (ev *Evaluator) EvalPoint(f PointFormula, env map[string]geom.Point) (result bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pointfo: %v", r)
		}
	}()
	if env == nil {
		env = map[string]geom.Point{}
	}
	return ev.evalPoint(f, env), nil
}

func (ev *Evaluator) evalPoint(f PointFormula, env map[string]geom.Point) bool {
	get := func(v string) geom.Point {
		p, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("unbound point variable %q", v))
		}
		return p
	}
	switch g := f.(type) {
	case In:
		if !ev.inst.Schema().Has(g.Region) {
			panic(fmt.Sprintf("unknown region %q", g.Region))
		}
		return ev.inst.Contains(g.Region, get(g.Var))
	case InInterior:
		if !ev.inst.Schema().Has(g.Region) {
			panic(fmt.Sprintf("unknown region %q", g.Region))
		}
		return ev.inst.Region(g.Region).ContainsInterior(get(g.Var))
	case LessX:
		return get(g.L).X.Less(get(g.R).X)
	case LessY:
		return get(g.L).Y.Less(get(g.R).Y)
	case SamePoint:
		return get(g.L).Equal(get(g.R))
	case PNot:
		return !ev.evalPoint(g.F, env)
	case PAnd:
		for _, s := range g.Fs {
			if !ev.evalPoint(s, env) {
				return false
			}
		}
		return true
	case POr:
		for _, s := range g.Fs {
			if ev.evalPoint(s, env) {
				return true
			}
		}
		return false
	case PImplies:
		return !ev.evalPoint(g.L, env) || ev.evalPoint(g.R, env)
	case PExists:
		return ev.quantPoint(g.Vars, g.Body, env, true)
	case PForall:
		return ev.quantPoint(g.Vars, g.Body, env, false)
	default:
		panic(fmt.Sprintf("unknown formula %T", f))
	}
}

func (ev *Evaluator) quantPoint(vars []string, body PointFormula, env map[string]geom.Point, existential bool) bool {
	if len(vars) == 0 {
		return ev.evalPoint(body, env)
	}
	v, rest := vars[0], vars[1:]
	saved, had := env[v]
	defer func() {
		if had {
			env[v] = saved
		} else {
			delete(env, v)
		}
	}()
	for _, p := range ev.sample.Points {
		env[v] = p
		r := ev.quantPoint(rest, body, env, existential)
		if existential && r {
			return true
		}
		if !existential && !r {
			return false
		}
	}
	return !existential
}

// --- FO(R, <) ----------------------------------------------------------------

// RealFormula is a formula of FO(R,<): real-valued variables, the order <,
// and region predicates applied to coordinate pairs.
type RealFormula interface {
	isRealFormula()
	String() string
}

// RIn asserts that the point (X, Y) — given by two real variables — belongs
// to the named region.
type RIn struct {
	Region string
	X, Y   string
}

// RLess asserts L < R between two real variables.
type RLess struct{ L, R string }

// REq asserts equality of two real variables.
type REq struct{ L, R string }

// RNot, RAnd, ROr, RImplies are the Boolean connectives.
type RNot struct{ F RealFormula }

// RAnd is conjunction.
type RAnd struct{ Fs []RealFormula }

// ROr is disjunction.
type ROr struct{ Fs []RealFormula }

// RImplies is implication.
type RImplies struct{ L, R RealFormula }

// RExists existentially quantifies real variables.
type RExists struct {
	Vars []string
	Body RealFormula
}

// RForall universally quantifies real variables.
type RForall struct {
	Vars []string
	Body RealFormula
}

func (RIn) isRealFormula()      {}
func (RLess) isRealFormula()    {}
func (REq) isRealFormula()      {}
func (RNot) isRealFormula()     {}
func (RAnd) isRealFormula()     {}
func (ROr) isRealFormula()      {}
func (RImplies) isRealFormula() {}
func (RExists) isRealFormula()  {}
func (RForall) isRealFormula()  {}

func (f RIn) String() string      { return fmt.Sprintf("%s(%s,%s)", f.Region, f.X, f.Y) }
func (f RLess) String() string    { return fmt.Sprintf("%s < %s", f.L, f.R) }
func (f REq) String() string      { return fmt.Sprintf("%s = %s", f.L, f.R) }
func (f RNot) String() string     { return "¬(" + f.F.String() + ")" }
func (f RAnd) String() string     { return joinReal(f.Fs, " ∧ ") }
func (f ROr) String() string      { return joinReal(f.Fs, " ∨ ") }
func (f RImplies) String() string { return "(" + f.L.String() + " → " + f.R.String() + ")" }
func (f RExists) String() string  { return "∃" + strings.Join(f.Vars, ",") + "." + f.Body.String() }
func (f RForall) String() string  { return "∀" + strings.Join(f.Vars, ",") + "." + f.Body.String() }

func joinReal(fs []RealFormula, sep string) string {
	if len(fs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// RealQuantifierDepth returns the quantifier depth of a real formula.
func RealQuantifierDepth(f RealFormula) int {
	switch g := f.(type) {
	case RIn, RLess, REq:
		return 0
	case RNot:
		return RealQuantifierDepth(g.F)
	case RAnd:
		m := 0
		for _, s := range g.Fs {
			if d := RealQuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case ROr:
		m := 0
		for _, s := range g.Fs {
			if d := RealQuantifierDepth(s); d > m {
				m = d
			}
		}
		return m
	case RImplies:
		l, r := RealQuantifierDepth(g.L), RealQuantifierDepth(g.R)
		if l > r {
			return l
		}
		return r
	case RExists:
		return len(g.Vars) + RealQuantifierDepth(g.Body)
	case RForall:
		return len(g.Vars) + RealQuantifierDepth(g.Body)
	default:
		panic(fmt.Sprintf("pointfo: unknown real formula %T", f))
	}
}

// EvalReal evaluates an FO(R,<) sentence.  Real quantifiers range over the
// coordinate values of the representative sample, their midpoints and values
// beyond the extremes — the finite collapse adequate for the topological
// fragment.
func (ev *Evaluator) EvalReal(f RealFormula, env map[string]rat.R) (result bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pointfo: %v", r)
		}
	}()
	if env == nil {
		env = map[string]rat.R{}
	}
	vals := ev.realSample()
	return ev.evalReal(f, env, vals), nil
}

func (ev *Evaluator) realSample() []rat.R {
	coords := make([]rat.R, 0, 2*len(ev.sample.Points))
	for _, p := range ev.sample.Points {
		coords = append(coords, p.X, p.Y)
	}
	if len(coords) == 0 {
		coords = append(coords, rat.Zero)
	}
	// Sort and deduplicate, then add midpoints and outer values.
	uniq := map[string]rat.R{}
	for _, c := range coords {
		uniq[c.Key()] = c
	}
	sorted := make([]rat.R, 0, len(uniq))
	for _, c := range uniq {
		sorted = append(sorted, c)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	out := []rat.R{sorted[0].Sub(rat.One)}
	for i, c := range sorted {
		out = append(out, c)
		if i+1 < len(sorted) {
			out = append(out, rat.Mid(c, sorted[i+1]))
		}
	}
	out = append(out, sorted[len(sorted)-1].Add(rat.One))
	return out
}

func (ev *Evaluator) evalReal(f RealFormula, env map[string]rat.R, vals []rat.R) bool {
	get := func(v string) rat.R {
		r, ok := env[v]
		if !ok {
			panic(fmt.Sprintf("unbound real variable %q", v))
		}
		return r
	}
	switch g := f.(type) {
	case RIn:
		if !ev.inst.Schema().Has(g.Region) {
			panic(fmt.Sprintf("unknown region %q", g.Region))
		}
		return ev.inst.Contains(g.Region, geom.PtR(get(g.X), get(g.Y)))
	case RLess:
		return get(g.L).Less(get(g.R))
	case REq:
		return get(g.L).Equal(get(g.R))
	case RNot:
		return !ev.evalReal(g.F, env, vals)
	case RAnd:
		for _, s := range g.Fs {
			if !ev.evalReal(s, env, vals) {
				return false
			}
		}
		return true
	case ROr:
		for _, s := range g.Fs {
			if ev.evalReal(s, env, vals) {
				return true
			}
		}
		return false
	case RImplies:
		return !ev.evalReal(g.L, env, vals) || ev.evalReal(g.R, env, vals)
	case RExists:
		return ev.quantReal(g.Vars, g.Body, env, vals, true)
	case RForall:
		return ev.quantReal(g.Vars, g.Body, env, vals, false)
	default:
		panic(fmt.Sprintf("unknown real formula %T", f))
	}
}

func (ev *Evaluator) quantReal(vars []string, body RealFormula, env map[string]rat.R, vals []rat.R, existential bool) bool {
	if len(vars) == 0 {
		return ev.evalReal(body, env, vals)
	}
	v, rest := vars[0], vars[1:]
	saved, had := env[v]
	defer func() {
		if had {
			env[v] = saved
		} else {
			delete(env, v)
		}
	}()
	for _, x := range vals {
		env[v] = x
		r := ev.quantReal(rest, body, env, vals, existential)
		if existential && r {
			return true
		}
		if !existential && !r {
			return false
		}
	}
	return !existential
}

// --- canonical example queries -----------------------------------------------

// QueryIntersect states that regions p and q share a point.
func QueryIntersect(p, q string) PointFormula {
	return PExists{[]string{"u"}, PAnd{[]PointFormula{In{p, "u"}, In{q, "u"}}}}
}

// QueryContained states that region p is contained in region q.
func QueryContained(p, q string) PointFormula {
	return PForall{[]string{"u"}, PImplies{In{p, "u"}, In{q, "u"}}}
}

// QueryBoundaryOnlyIntersection is the paper's running example: regions p and
// q intersect only on their boundaries.  A point is on the boundary of a
// region exactly when it belongs to the region while arbitrarily close points
// do not; over the representative sample this is expressed through the
// topological characterisation "u is in p but not in p's interior", which the
// evaluator decides cell-wise.
func QueryBoundaryOnlyIntersection(p, q string) PointFormula {
	return PForall{[]string{"u"}, PImplies{
		PAnd{[]PointFormula{In{p, "u"}, In{q, "u"}}},
		PAnd{[]PointFormula{boundaryOf(p, "u"), boundaryOf(q, "u")}},
	}}
}

// boundaryOf(u ∈ ∂p): u belongs to p and every sample point arbitrarily
// "close" in the cell order — here captured by the existence of a non-member
// point of p sharing the cell-adjacent sample; for the cell-representative
// semantics it suffices that u is in p and u is not an interior witness.
// Interior witnesses are exactly the face representatives contained in p, so
// the formula states: u ∈ p and there is a point of the complement of p that
// is "x- and y-adjacent" to u in the sample in no particular direction —
// operationally we use the simpler exact characterisation below, which the
// evaluator resolves through region interior membership.
func boundaryOf(p, u string) PointFormula {
	return PAnd{[]PointFormula{In{p, u}, PNot{InInterior{p, u}}}}
}

// InInterior asserts that the point variable lies in the topological interior
// of the named region.  It is definable in FO(P,<x,<y) (see the paper's
// running example), and the evaluator resolves it exactly through the
// region's interior test; it is provided as a primitive so that topological
// queries can be written directly against cell semantics.
type InInterior struct {
	Region string
	Var    string
}

func (InInterior) isPointFormula() {}

func (f InInterior) String() string { return fmt.Sprintf("interior_%s(%s)", f.Region, f.Var) }
