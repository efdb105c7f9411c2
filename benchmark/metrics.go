package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees, reported by the untraced
// pass of every workload. The three wall-clock metrics are the best
// segment's, scaled to the reference clock (see segmentLen); they carry
// the widest bound the contract allows, because identical runs on the
// reference box still differ by up to 15 %. crit_path_ms and
// max_recv_words come from the timed transport's logical clock and word
// counters, so they repeat exactly; their bound only has to be non-zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"crit_path_ms", "sim_ms", "lower", 0.01},
	{"max_recv_words", "words", "lower", 0.01},
	{"alloc_kb_per_op", "KiB", "lower", 0.10},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer is reported by the traced pass. The prefix is the module the
// number belongs to; README.md says how each is taken and which
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"matrix.kernel_peak_gflops", "Gflop/s", "higher", 0},
	{"matrix.kernel_ms", "ms", "lower", 0},
	{"matrix.kernel_gflops", "Gflop/s", "higher", 0},
	{"matrix.kernel_frac", "ratio", "higher", 0},
	{"matrix.flops_per_byte", "flop/B", "higher", 0},
	{"matrix.pack_ms", "ms", "lower", 0},
	{"algo.clone_in_ms", "ms", "lower", 0},
	{"algo.assemble_ms", "ms", "lower", 0},
	{"comm.collective_ms", "ms", "lower", 0},
	{"comm.bcast_us", "us", "lower", 0},
	{"comm.reduce_us", "us", "lower", 0},
	{"machine.run_spawn_us", "us", "lower", 0},
	{"machine.sendrecv_us", "us", "lower", 0},
	{"machine.max_msgs", "count", "lower", 0},
	{"machine.total_words", "words", "lower", 0},
	{"machine.avg_recv_words", "words", "lower", 0},
	{"machine.recv_imbalance", "ratio", "lower", 0},
	{"engine.plan_miss_us", "us", "lower", 0},
	{"engine.plan_hit_ns", "ns", "lower", 0},
	{"engine.first_exec_ms", "ms", "lower", 0},
	{"engine.exec_tail_ms", "ms", "lower", 0},
	{"engine.exec_tail_pct", "%", "higher", 0},
	{"engine.exec_max_ms", "ms", "lower", 0},
	{"engine.unattributed_ms", "ms", "lower", 0},
	{"engine.abft_over_plain", "ratio", "lower", 0},
	{"engine.overlap_over_sync", "ratio", "lower", 0},
	{"engine.autotune_over_default", "ratio", "lower", 0},
	{"grid.fit_us", "us", "lower", 0},
	{"core.rounds", "count", "lower", 0},
	{"core.ranks_used", "count", "higher", 0},
	{"core.model_over_measured_words", "ratio", "higher", 0},
	{"bound.words_over_bound", "ratio", "lower", 0},
	{"perfmodel.pred_over_crit", "ratio", "higher", 0},
	{"baselines.summa_crit_path_ms", "sim_ms", "lower", 0},
	{"baselines.c25d_crit_path_ms", "sim_ms", "lower", 0},
	{"baselines.carma_crit_path_ms", "sim_ms", "lower", 0},
	{"baselines.cannon_crit_path_ms", "sim_ms", "lower", 0},
	{"strassen.caps_crit_path_ms", "sim_ms", "lower", 0},
	{"baselines.cosma_over_best_crit", "ratio", "lower", 0},
	{"wire.exec_p50_ms", "ms", "lower", 0},
	{"wire.over_counting", "ratio", "lower", 0},
	{"serve.http_p50_ms", "ms", "lower", 0},
	{"serve.handler_p50_ms", "ms", "lower", 0},
	{"serve.multiply_p50_ms", "ms", "lower", 0},
	{"serve.exec_p50_ms", "ms", "lower", 0},
	{"serve.net_ms", "ms", "lower", 0},
	{"serve.codec_ms", "ms", "lower", 0},
	{"serve.queue_window_ms", "ms", "lower", 0},
	{"serve.codec_mb_per_s", "MB/s", "higher", 0},
	{"serve.req_kb_mean", "KB", "lower", 0},
	{"serve.resp_kb_mean", "KB", "lower", 0},
	{"serve.http_tail_ms", "ms", "lower", 0},
	{"serve.http_tail_pct", "%", "higher", 0},
	{"serve.over_direct", "ratio", "lower", 0},
	{"serve.plan_hit_rate", "ratio", "higher", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.burst_ops_per_s", "1/s", "higher", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"bench.clock_factor", "ratio", "lower", 0},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measured collects metric values by name while a pass runs.
type measured map[string]float64

// report turns the collected values into the contract's metric map:
// every metric of defs exactly once, finite, and nothing else.
func (m measured) report(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v is not finite", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile is the percentile rule of the choosing-metrics guide:
// the highest rung of the ladder that still has at least ten of the n
// samples beyond it. Below twenty samples only the median is supported.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, rung := range []struct {
		q     float64
		oneOf int // the share of samples beyond q is 1/oneOf
	}{{0.75, 4}, {0.9, 10}, {0.95, 20}, {0.99, 100}, {0.999, 1000}} {
		if n >= 10*rung.oneOf {
			best = rung.q
		}
	}
	return best
}

// tail returns the supported tail of xs and the percentile it sits at.
func tail(xs []float64) (v, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := tailQuantile(len(s))
	return quantile(s, q), 100 * q
}
