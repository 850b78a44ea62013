package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json exactly (TestMetricTableMatchesBenchmark).
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run, on every workload. What
// "latency" and "throughput" measure depends on the workload; README.md
// gives the definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// profileLayers are the groups CPU-profile samples are attributed to:
// module packages by their internal/ name, a few standard-library groups,
// the harness itself, and "other" for the remainder, so the groups sum to
// the profile's total.
var profileLayers = []string{
	"sim", "shard", "core", "kernel", "urt", "apic", "uintr", "netsim", "lpm", "kvstore",
	"cpu", "isa", "trace", "mem", "dsa", "ipc",
	"experiments", "sweep", "runcache", "stats", "obs",
	"report", "server",
	"go.encoding_json", "go.net_http", "go.crypto", "go.syscall", "go.sync", "go.runtime",
	"bench", "other",
}

// gridExperiments lists every experiment a grid workload runs, in the
// registry's canonical order.
var gridExperiments = append(append([]string{}, tier1Experiments...), tier2Experiments...)

// perLayer is printed by every traced run, on every workload; a metric
// that does not apply to a workload reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profileLayers {
		out = append(out, metricDef{"layer." + l + ".self_s", "s"})
	}
	out = append(out, metricDef{"layer.total_s", "s"})
	for _, e := range gridExperiments {
		out = append(out,
			metricDef{"exp." + e + ".wall_s", "s"},
			metricDef{"exp." + e + ".alloc_mb", "MiB"},
			metricDef{"exp." + e + ".points", "count"})
	}
	out = append(out,
		metricDef{"report.fingerprint_s", "s"},
		metricDef{"sim.events_fired", "count"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"tier1.delivered", "count"},
		metricDef{"model.tier1_delivery_p99_cy", "cycles"},
		metricDef{"model.tier2_delivery_p99_cy", "cycles"},
		metricDef{"model.paper_err_pct", "%"})
	for _, c := range []string{"baseline", "checkpoint", "receiver", "senduipi"} {
		out = append(out,
			metricDef{"runcache.tier1_" + c + ".hits", "count"},
			metricDef{"runcache.tier1_" + c + ".misses", "count"})
	}
	out = append(out,
		metricDef{"tapes.mb", "MiB"},
		metricDef{"tapes.recordings", "count"},
		metricDef{"tapes.replays", "count"},
		metricDef{"go.alloc_gb", "GiB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.heap_inuse_peak_mb", "MiB"},
		metricDef{"http.submit_p50_ms", "ms"},
		metricDef{"http.submit_p99_ms", "ms"},
		metricDef{"http.result_p50_ms", "ms"},
		metricDef{"http.result_p99_ms", "ms"},
		metricDef{"http.result_kb", "KiB"},
		metricDef{"serve.warm_p50_ms", "ms"},
		metricDef{"serve.warm_p99_ms", "ms"},
		metricDef{"serve.warm_rps", "1/s"},
		metricDef{"serve.cold_p50_ms", "ms"},
		metricDef{"serve.cold_p90_ms", "ms"},
		metricDef{"serve.queue_wait_p50_ms", "ms"},
		metricDef{"serve.run_p50_ms", "ms"},
		metricDef{"serve.run_p90_ms", "ms"},
		metricDef{"serve.fetch_p50_ms", "ms"},
		metricDef{"serve.prime_s", "s"},
		metricDef{"server.shed", "count"},
		metricDef{"server.jobs_failed", "count"},
		metricDef{"server.cache_answered", "count"},
		metricDef{"server.jobs_cache.hits", "count"},
		metricDef{"server.jobs_cache.misses", "count"},
		metricDef{"server.jobs_cache.disk_stores", "count"},
		metricDef{"runcache.disk_load_p50_ms", "ms"},
		metricDef{"runcache.disk_mb", "MiB"},
		metricDef{"trace_overhead_pct", "%"},
		metricDef{"fail_ratio", "ratio"})
	return out
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for defs from values; a missing or
// non-finite value reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median is percentile 50 on a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0
	case 1:
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(3)
}
