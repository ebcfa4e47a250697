package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric, its unit, and which direction is
// better. BENCHMARK.json at the repository root lists the same metrics;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them: an "operation" is one
// flow (tps_flow), one placement (place_50k) or one race job
// (tpsd_eco).
var endToEnd = []metricDef{
	// setup_s is the median of several set-ups in one run: design
	// generation and analyzer attach, plus checkpoint placement and
	// upload for tpsd_eco.
	{"setup_s", "s", "lower"},
	// wall_s is the median wall time of one operation as the system
	// runs it: the flow or placement call, or a race job's server-side
	// run (started → finished).
	{"wall_s", "s", "lower"},
	// job_latency_* are per-operation latencies as the caller sees them:
	// submit → terminal flow_end for tpsd_eco, the blocking call for the
	// in-process flows.
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p90_s", "s", "lower"},
	// jobs_per_s is operations completed per second of the timed region.
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	// QoR guards. They are deterministic for a seed, so a change that
	// alters results shows here. cycle_ps is the achieved cycle (clock
	// period − worst slack, the paper's Table 1 column) and tns_ps the
	// magnitude of total negative slack; both stay positive where the
	// signed slack would not. tpsd_eco reports the mean over job winners.
	{"cycle_ps", "ps", "lower"},
	{"tns_ps", "ps", "lower"},
	{"area_um2", "um2", "lower"},
	{"steiner_wire_um", "um", "lower"},
}

// stepLayers are the module layers transform steps are grouped into (see
// layerOf). Each reports <layer>.ms, .timing_recomputes and
// .steiner_rebuilds per operation.
var stepLayers = []string{
	"place", "sizing", "synth", "migrate", "relocate", "netweight",
	"clockscan", "congestion", "route", "scenario",
}

// perLayer are the metrics of single layers, measured in a traced run.
// Counts and times are per operation.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"place.partition_ms", "ms", "lower"},
		{"place.reflow_ms", "ms", "lower"},
		{"place.detailed_ms", "ms", "lower"},
		{"place.legalize_ms", "ms", "lower"},
		{"partition.fm_pushes", "count", "lower"},
		{"partition.fm_pops", "count", "lower"},
		{"partition.fm_gain_updates", "count", "lower"},
		{"partition.fm_useful_frac", "ratio", "higher"},
	}
	for _, l := range stepLayers {
		defs = append(defs,
			metricDef{l + ".ms", "ms", "lower"},
			metricDef{l + ".timing_recomputes", "count", "lower"},
			metricDef{l + ".steiner_rebuilds", "count", "lower"})
	}
	return append(defs,
		metricDef{"timing.recomputes", "count", "lower"},
		metricDef{"steiner.rebuilds", "count", "lower"},
		metricDef{"congestion.full_passes", "count", "lower"},
		metricDef{"congestion.incr_passes", "count", "lower"},
		metricDef{"timing.full_ms", "ms", "lower"},
		metricDef{"steiner.full_ms", "ms", "lower"},
		metricDef{"congestion.full_ms", "ms", "lower"},
		metricDef{"timing.incr_ms", "ms", "lower"},
		metricDef{"steiner.incr_ms", "ms", "lower"},
		metricDef{"congestion.incr_ms", "ms", "lower"},
		metricDef{"route.wire_um", "um", "lower"},
		metricDef{"route.overflows", "count", "lower"},
		metricDef{"scenario.overhead_ms", "ms", "lower"},
		metricDef{"scenario.status_round_ms", "ms", "lower"},
		metricDef{"scenario.cold_eval_ms", "ms", "lower"},
		metricDef{"scenario.protect_accepts", "count", "higher"},
		metricDef{"scenario.protect_rejects", "count", "lower"},
		metricDef{"netio.write_ms", "ms", "lower"},
		metricDef{"netio.read_ms", "ms", "lower"},
		metricDef{"netio.capture_ms", "ms", "lower"},
		metricDef{"netio.restore_ms", "ms", "lower"},
		metricDef{"netio.forks_per_job", "count", "lower"},
		metricDef{"portfolio.entrant_ms", "ms", "lower"},
		metricDef{"portfolio.overhead_ms", "ms", "lower"},
		metricDef{"serve.queue_wait_ms", "ms", "lower"},
		metricDef{"serve.run_ms", "ms", "lower"},
		metricDef{"serve.overhead_ms", "ms", "lower"},
		metricDef{"serve.rejected", "count", "lower"},
		metricDef{"error_rate", "ratio", "lower"},
		metricDef{"trace_overhead", "ratio", "lower"},
	)
}

// values collects metric values by name; report turns them into the
// output object for one metric table, filling a missing metric with 0
// (an idle layer).
type values map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (v values) report(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		x := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.Name] = metricOut{Value: x, Unit: d.Unit}
	}
	return out
}

// median returns the middle of xs (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100): with 100 samples, p90 leaves exactly ten above it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
