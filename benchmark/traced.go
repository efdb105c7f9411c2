package main

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// probeDur is how long the traced pass spends on the side of the
// program the workload does not exercise (the serving side of an engine
// workload, the engine side of serve-mix): long enough for a median,
// and labelled context in README.md.
const probeDur = time.Second

// tracedPass produces the per-layer metrics of one workload. It runs the
// workload's own operation for a quarter of the window twice, once
// without and once with spans, then times every layer through its
// exported functions, each call under a span. Layers the benchmark can
// only split apart by replaying them are replayed: the numbers are the
// layer's share of one operation run in isolation, not a profile.
func tracedPass(ctx context.Context, w spec, tr *tracer, seed int64, dur time.Duration, withWire bool) (measured, tally, error) {
	out := measured{}
	var total tally
	probe := min(probeDur, dur)
	ownDur := max(dur/4, probe)
	engineDur, serveDur := ownDur, probe
	if w.http {
		engineDur, serveDur = probe, ownDur
	}

	// Engine side. The fresh engine is the first work of the process, so
	// its set-up is the process-cold one.
	sh := w.engine
	es := newEngineSide(sh, seed)
	first, err := es.setup(ctx, tr)
	if err != nil {
		return nil, total, err
	}
	out["engine.first_exec_ms"] = first * 1e3
	if err := es.warm(ctx); err != nil {
		return nil, total, err
	}
	plain, err := runWindow(nil, "", engineDur, 1, nil, es.exec(ctx))
	if err != nil {
		return nil, total, err
	}
	spanned, err := runWindow(tr, "Engine.Exec", engineDur, 1, nil, es.exec(ctx))
	if err != nil {
		return nil, total, err
	}
	total.add(plain.tally)
	total.add(spanned.tally)
	execMs, execAll := spanned.p50ms(), spanned.all()
	out["engine.exec_tail_ms"], out["engine.exec_tail_pct"] = tail(execAll)
	out["engine.exec_max_ms"] = slices.Max(execAll)
	out["bench.clock_factor"] = spanned.clock()
	if !w.http {
		out["trace.overhead_frac"] = execMs/plain.p50ms() - 1
	}

	plan, err := es.eng.Plan(ctx, sh.m, sh.n, sh.k)
	if err != nil {
		return nil, total, err
	}
	d, ok := plan.Decomposition()
	if !ok {
		return nil, total, fmt.Errorf("%s exposes no decomposition to replay", plan.Algorithm())
	}
	_, counted, err := es.eng.Exec(ctx, es.a, es.b)
	if err != nil {
		return nil, total, err
	}
	sc := scheduleOf(sh, d)
	peak := kernelPeak(tr)
	out["matrix.kernel_peak_gflops"] = peak
	out["matrix.kernel_frac"] = sh.flops() / (execMs / 1e3) / 1e9 / peak
	sc.matrixAlgoLayers(tr, es.a, es.b, out)
	if err := sc.commLayer(tr, counted, out); err != nil {
		return nil, total, err
	}
	out["engine.unattributed_ms"] = execMs - out["matrix.kernel_ms"] - out["comm.collective_ms"] -
		out["algo.clone_in_ms"] - out["matrix.pack_ms"] - out["algo.assemble_ms"]
	if err := planLayers(ctx, tr, es, out); err != nil {
		return nil, total, err
	}
	side, err := optionLayers(ctx, tr, es, out)
	total.add(side)
	if err != nil {
		return nil, total, err
	}
	if err := reportLayers(ctx, tr, es, d, counted, out); err != nil {
		return nil, total, err
	}
	out["wire.exec_p50_ms"], out["wire.over_counting"] = 0, 0
	if withWire {
		wired, err := wireLayer(ctx, tr, es, seed, execMs, out)
		total.add(wired)
		if err != nil {
			return nil, total, err
		}
	}

	// Serving side.
	in, err := newMixInputs(ctx, w.mix, seed)
	if err != nil {
		return nil, total, err
	}
	c, _, err := in.setup(ctx, tr)
	if err != nil {
		return nil, total, err
	}
	defer c.stop(ctx)
	server := func() *cosmad { return c }
	if _, err := runWindow(nil, "", probe/5, w.mix.clients, nil, in.requests(seed+1, server)); err != nil {
		return nil, total, err
	}
	plainHTTP, err := runWindow(nil, "", serveDur, w.mix.clients, nil, in.requests(seed, server))
	if err != nil {
		return nil, total, err
	}
	before := c.srv.Stats()
	spannedHTTP, err := runWindow(tr, "POST /v1/multiply", serveDur, w.mix.clients, nil, in.requests(seed, server))
	if err != nil {
		return nil, total, err
	}
	after := c.srv.Stats()
	total.add(plainHTTP.tally)
	total.add(spannedHTTP.tally)
	out["serve.http_tail_ms"], out["serve.http_tail_pct"] = tail(spannedHTTP.all())
	hits, misses := after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses
	out["serve.plan_hit_rate"] = float64(hits) / float64(hits+misses)
	shed, admitted := after.Shed-before.Shed, after.Requests-before.Requests
	out["serve.shed_share"] = float64(shed) / float64(shed+admitted)
	if w.http {
		out["trace.overhead_frac"] = spannedHTTP.p50ms()/plainHTTP.p50ms() - 1
		out["bench.clock_factor"] = spannedHTTP.clock()
	}
	total.add(c.ladder(ctx, tr, in, seed, serveDur, out))
	total.add(c.burst(ctx, tr, in, 8, out))
	return out, total, nil
}
