package main

import (
	"fmt"
	"sync"

	"repro/internal/arrangement"
	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/queryl"
)

// reference is the in-process answer to one check.
type reference struct {
	answer bool
	cells  invariantCounts
	err    error
}

// verify recomputes every served answer in-process, after the server has
// stopped, and returns the ops whose answer was wrong (op -1 marks a
// set-up preload).  Asks are answered by the tree-walk evaluator
// pointfo.Evaluator.EvalPoint, which shares no code with the server's
// compiled evaluator or its answer cache.  For an ingest map, the
// invariant's cell counts are checked against invariant.FromComplex of one
// arrangement.Build (the body of invariant.Compute), and that arrangement
// also yields the tree walk's sample.
func verify(checks []check) map[int]error {
	type job struct {
		key string
		c   check
	}
	refs := map[string]*reference{}
	var jobs []job
	for _, c := range checks {
		key := c.m.id + "\x00" + c.formula
		if _, ok := refs[key]; !ok {
			refs[key] = &reference{}
			jobs = append(jobs, job{key, c})
		}
	}
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				*refs[j.key] = computeReference(j.c)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()

	wrong := map[int]error{}
	for _, c := range checks {
		ref := refs[c.m.id+"\x00"+c.formula]
		switch {
		case ref.err != nil:
			wrong[c.op] = ref.err
		case ref.answer != c.answer:
			wrong[c.op] = fmt.Errorf("map %s: %q answered %v, reference %v", c.m.id[:12], c.formula, c.answer, ref.answer)
		case c.cells != nil && *c.cells != ref.cells:
			wrong[c.op] = fmt.Errorf("map %s: invariant cells %+v, reference %+v", c.m.id[:12], *c.cells, ref.cells)
		}
	}
	return wrong
}

func computeReference(c check) reference {
	q, err := queryl.Parse(c.formula)
	if err != nil {
		return reference{err: err}
	}
	var ref reference
	sample := c.sample
	if sample == nil {
		cx, err := arrangement.Build(c.m.inst)
		if err != nil {
			return reference{err: err}
		}
		inv := invariant.FromComplex(cx)
		ref.cells = invariantCounts{Vertices: len(inv.Vertices), Edges: len(inv.Edges), Faces: len(inv.Faces), Cells: inv.CellCount()}
		sample = pointfo.SampleFromComplex(cx)
	}
	ref.answer, ref.err = pointfo.NewEvaluatorWith(c.m.inst, sample).EvalPoint(q.Formula, nil)
	return ref
}
