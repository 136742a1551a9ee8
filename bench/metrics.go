package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source the program prints from and -compare judges with; bench_test.go
// fails when BENCHMARK.json and these tables disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median it may worsen by
}

// endToEnd are the numbers a user of the tracer sees. Every workload
// reports every one of them, and none is ever 0.
//
// The bounds are what this host can resolve, not what one would wish for:
// ten runs on ten seeds spread by 3-7% of their median (interquartile)
// while the shared two-core VM keeps its speed and by 10-19% when it
// changes it meanwhile, so the time-based metrics sit at the contract's
// ceiling of 25%; allocation repeats to 0.2% in process but to 2-5% over
// the wire, where batching decides how often the pools miss.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "act_per_s", Unit: "activities/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_act", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "alloc_b_per_act", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "emit_lag_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "emit_lag_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer numbers, named <module>.<what>. A metric
// whose layer a workload bypasses reads 0 there (README.md says which).
var perLayer = []metricDef{
	{Name: "activity.encode_bin_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "activity.decode_bin_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "activity.wire_b_per_rec", Unit: "B", Better: "lower"},
	{Name: "activity.parse_text_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "transport.record_block_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.sink_block_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.batches", Unit: "count", Better: "lower"},
	{Name: "transport.recs_per_batch", Unit: "count", Better: "higher"},
	{Name: "transport.tcp_b_per_rec", Unit: "B", Better: "lower"},
	{Name: "transport.ack_b_per_rec", Unit: "B", Better: "lower"},
	{Name: "transport.disconnects", Unit: "count", Better: "lower"},
	{Name: "core.ingest_wait_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.ingest_wait_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.push_ns_per_act", Unit: "ns", Better: "lower"},
	{Name: "flow.add_ns_per_act", Unit: "ns", Better: "lower"},
	{Name: "core.tick_ns_per_act", Unit: "ns", Better: "lower"},
	{Name: "core.ticks", Unit: "count", Better: "lower"},
	{Name: "core.close_ms", Unit: "ms", Better: "lower"},
	{Name: "core.shards", Unit: "count", Better: "higher"},
	{Name: "core.forced_seals", Unit: "count", Better: "higher"},
	{Name: "core.late_links", Unit: "count", Better: "lower"},
	{Name: "core.peak_buffered_acts", Unit: "count", Better: "lower"},
	{Name: "core.peak_resident_vertices", Unit: "count", Better: "lower"},
	{Name: "core.correlation_ms", Unit: "ms", Better: "lower"},
	{Name: "ranker.rank_ns_per_act", Unit: "ns", Better: "lower"},
	{Name: "engine.handle_ns_per_act", Unit: "ns", Better: "lower"},
	{Name: "ranker.swaps", Unit: "count", Better: "lower"},
	{Name: "ranker.noise_dropped", Unit: "count", Better: "lower"},
	{Name: "ranker.peak_buffered", Unit: "count", Better: "lower"},
	{Name: "engine.merged_sends", Unit: "count", Better: "lower"},
	{Name: "engine.reuse_breaks", Unit: "count", Better: "lower"},
	{Name: "export.otlp_us_per_graph", Unit: "us", Better: "lower"},
	{Name: "export.otlp_b_per_graph", Unit: "B", Better: "lower"},
	{Name: "export.dump_us_per_graph", Unit: "us", Better: "lower"},
	{Name: "live.ingest_us_per_graph", Unit: "us", Better: "lower"},
	{Name: "cag.signature_us_per_graph", Unit: "us", Better: "lower"},
	{Name: "cag.vertices_per_graph", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_act", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_live_mb_eof", Unit: "MB", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.offered_act_per_s", Unit: "activities/s", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.accounted_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.layers_cpu_frac", Unit: "ratio", Better: "higher"},
}

// sample is one reported metric: the median over passes with its
// quartiles and the number of passes behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports the median and quartiles of vs (one value per pass).
func summarize(vs []float64, unit string) sample {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sample{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single is a metric measured once (a count, or a traced-pass figure).
func single(v float64) sample {
	return sample{Value: v, Q1: v, Q3: v, N: 1}
}

// quantile interpolates linearly in a sorted slice; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentiles sorts ns in place and returns the given quantiles.
func percentiles(ns []int64, qs ...float64) []float64 {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	out := make([]float64, len(qs))
	for k, q := range qs {
		if len(ns) > 0 {
			out[k] = float64(ns[int(q*float64(len(ns)-1))])
		}
	}
	return out
}
