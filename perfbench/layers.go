package main

import (
	"crypto/sha256"
	"errors"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/pointfo"
	"repro/internal/queryl"
	"repro/internal/simindex"
	"repro/internal/spatial"
	"repro/internal/translate"
)

// delta is the change in the server's /v1/stats (engine counters and the
// JSON snapshot of every /metrics instrument) over a window.
type delta struct{ before, after *stats }

func (d delta) stat(f func(*stats) float64) float64 { return f(d.after) - f(d.before) }

// metric returns the change of an instrument summed over its labels; field
// picks a histogram's "count" or "sum" (seconds), "" reads a counter.
func (d delta) metric(name, field string) float64 {
	return metricSum(d.after.Metrics, name, field) - metricSum(d.before.Metrics, name, field)
}

// ratio returns hits/(hits+misses), or 1 when the cache saw no lookups
// (nothing was missed).
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return hits / (hits + misses)
}

func (d delta) answerHitRatio() float64 {
	return ratio(d.stat(func(s *stats) float64 { return s.AnswerHits }), d.stat(func(s *stats) float64 { return s.AnswerMisses }))
}

func (d delta) invariantHitRatio() float64 {
	return ratio(d.stat(func(s *stats) float64 { return s.CacheHits }), d.stat(func(s *stats) float64 { return s.CacheMisses }))
}

func (d delta) evaluatorHitRatio() float64 {
	return ratio(d.stat(func(s *stats) float64 { return s.EvalHits }), d.stat(func(s *stats) float64 { return s.EvalMisses }))
}

// serverLayers derives the per-op layer metrics of a traced window from the
// server's instrument deltas and the asks' ?debug=timings stage spans.
func serverLayers(d delta, win window, out metrics) {
	ops := float64(len(win.samples))
	perOp := func(name, field string, scale float64) float64 { return d.metric(name, field) * scale / ops }
	out.set("arrangement.builds_per_op", perOp("topoinv_arrangement_builds_total", "", 1), "count")
	out.set("arrangement.build_ms_per_op", perOp("topoinv_arrangement_build_seconds", "sum", 1e3), "ms")
	out.set("arrangement.intersection_ops_per_op", perOp("topoinv_arrangement_intersection_ops_total", "", 1), "count")
	out.set("sweep.run_ms_per_op", perOp("topoinv_sweep_run_seconds", "sum", 1e3), "ms")
	out.set("sweep.events_per_op", perOp("topoinv_sweep_events_total", "", 1), "count")
	out.set("invariant.build_ms_per_op", perOp("topoinv_engine_invariant_build_seconds", "sum", 1e3), "ms")
	out.set("simindex.update_ms_per_op", perOp("topoinv_simindex_update_seconds", "sum", 1e3), "ms")
	out.set("engine.computes_per_op", d.stat(func(s *stats) float64 { return s.Computes })/ops, "count")
	out.set("engine.evaluator_build_ms_per_op", perOp("topoinv_engine_evaluator_build_seconds", "sum", 1e3), "ms")
	out.set("engine.query_ms_per_op", perOp("topoinv_engine_query_duration_seconds", "sum", 1e3), "ms")
	out.set("pointfo.quantifier_plans_per_op", perOp("topoinv_pointfo_quantifier_plans_total", "", 1), "count")
	out.set("store.bytes_written_per_op", perOp("topoinv_store_bytes_written_total", "", 1), "B")
	out.set("store.bytes_read_per_op", perOp("topoinv_store_bytes_read_total", "", 1), "B")
	out.set("store.op_ms_per_op", perOp("topoinv_store_op_duration_seconds", "sum", 1e3), "ms")
	out.set("engine.answer_hit_ratio", d.answerHitRatio(), "ratio")
	out.set("engine.invariant_hit_ratio", d.invariantHitRatio(), "ratio")
	out.set("engine.evaluator_hit_ratio", d.evaluatorHitRatio(), "ratio")
	if n := d.metric("topoinv_http_request_duration_seconds", "count"); n > 0 {
		out.set("serve.handler_ms_per_req", d.metric("topoinv_http_request_duration_seconds", "sum")*1e3/n, "ms")
	}

	var rtt, engineNS, stagedNS float64
	stage := map[string]float64{}
	for _, s := range win.samples {
		rtt += float64(s.res.askRTT)
		engineNS += float64(s.res.askNS)
		for name, ns := range s.res.stages {
			stage[name] += float64(ns)
			stagedNS += float64(ns)
		}
	}
	for _, name := range []string{"resolve", "answer_cache", "open", "eval"} {
		out.set("engine.stage_"+name+"_ms", stage[name]/1e6/ops, "ms")
	}
	out.set("serve.overhead_ms", (rtt-engineNS)/1e6/ops, "ms")
	if rtt > 0 {
		out.set("bench.unattributed_share", (engineNS-stagedNS)/rtt, "ratio")
	}
}

// moduleLayers times each module's public functions in-process on the
// run's own maps and formulas, with the server stopped.
func moduleLayers(maps []*mapInput, formulas []string, out metrics) error {
	if len(maps) == 0 {
		return errors.New("traced window sent no maps")
	}
	if len(maps) > 8 {
		maps = maps[:8]
	}
	type prepared struct {
		inst *spatial.Instance
		blob []byte
		inv  *invariant.Invariant
		ce   *pointfo.CompiledEvaluator
	}
	var ps []prepared
	cells := 0.0
	for _, m := range maps {
		inv, err := invariant.Compute(m.inst)
		if err != nil {
			return err
		}
		s, err := pointfo.BuildSample(m.inst)
		if err != nil {
			return err
		}
		ps = append(ps, prepared{inst: m.inst, blob: m.blob, inv: inv, ce: pointfo.CompileFromSample(s)})
		cells += float64(inv.CellCount())
	}
	out.set("invariant.cells_per_instance", cells/float64(len(ps)), "count")
	var qs []*queryl.Query
	for _, f := range formulas {
		q, err := queryl.Parse(f)
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}

	each := func(name string, f func(p prepared)) {
		out.set(name, timePerCall(len(ps), func(i int) { f(ps[i]) }), "ms")
	}
	each("codec.decode_instance_ms", func(p prepared) { _, _ = codec.DecodeInstance(p.blob) })
	each("codec.instance_key_ms", func(p prepared) {
		data, _ := codec.EncodeInstance(p.inst)
		_ = sha256.Sum256(data)
	})
	each("codec.encode_invariant_ms", func(p prepared) { _, _ = codec.EncodeInvariant(p.inv) })
	each("spatial.validate_ms", func(p prepared) { _ = p.inst.Validate() })
	each("core.open_ms", func(p prepared) { _, _ = core.Open(p.inst) })
	each("pointfo.build_sample_ms", func(p prepared) { _, _ = pointfo.BuildSample(p.inst) })
	each("simindex.canonical_key_ms", func(p prepared) { _, _ = simindex.CanonicalKey(p.inv) })
	each("simindex.features_ms", func(p prepared) { _ = simindex.Features(p.inv) })
	each("simindex.make_entry_ms", func(p prepared) { _ = simindex.MakeEntry("probe", p.inv) })
	each("translate.can_invert_ms", func(p prepared) { _ = translate.CanInvert(p.inv) })
	out.set("queryl.parse_ms", timePerCall(len(formulas), func(i int) { _, _ = queryl.Parse(formulas[i]) }), "ms")
	out.set("pointfo.eval_ms", timePerCall(len(ps)*len(qs), func(i int) {
		p, q := ps[i%len(ps)], qs[i/len(ps)]
		_, _ = pointfo.EvalSentence(p.inst, p.ce, q.Formula)
	}), "ms")
	return nil
}

// timePerCall calls f over inputs 0..n-1, round after round, until at least
// 50ms and one full round have passed, and returns the mean ms per call.
func timePerCall(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for calls < n || time.Since(start) < 50*time.Millisecond {
		f(calls % n)
		calls++
	}
	return ms(time.Since(start)) / float64(calls)
}
