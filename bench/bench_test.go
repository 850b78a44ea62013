package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as the harness's child processes,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if kind := os.Getenv(childEnv); kind != "" {
		os.Exit(childMain(kind, os.Args[1:]))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmark(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMetricTableMatchesBenchmark holds the harness's metric and workload
// tables to BENCHMARK.json and its limits.
func TestMetricTableMatchesBenchmark(t *testing.T) {
	spec := readBenchmark(t)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || len(spec.Workloads) > 4 {
		t.Fatalf("%d end-to-end, %d per-layer metrics, %d workloads: over the limits",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics and %d workloads, the harness %d/%d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	check := func(name, unit, wantName, wantUnit string) {
		if name != wantName || unit != wantUnit {
			t.Errorf("BENCHMARK.json has %s (%s), the harness %s (%s)", name, unit, wantName, wantUnit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("bad or repeated metric %q (%q)", name, unit)
		}
		seen[name] = true
	}
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, w.Name, workloads[i].name)
		}
	}
}

// checkResult asserts a run was correct, failure-free, and emitted
// exactly the named metric set.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
			t.Errorf("metric %s: %+v (present %v)", d.name, m, ok)
		}
	}
}

// TestGridRep runs table2+fig2 at full scale through the harness, once
// untraced and once traced, with every result checked against golden.json.
func TestGridRep(t *testing.T) {
	w, _ := workloadByName("tier1-grid")
	base := w.plan(1, 0, false)
	base.grid, base.workDir = []string{"table2", "fig2"}, t.TempDir()
	res, err := execute(base)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, endToEnd)
	for _, name := range []string{"setup_s", "latency_p50_ms", "throughput_per_s", "peak_rss_mb"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}

	traced := base
	traced.traced, traced.traceDir = true, t.TempDir()
	res, err = execute(traced)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
	m := func(name string) float64 { return res.Metrics[name].Value }
	if m("fail_ratio") != 0 {
		t.Errorf("fail_ratio = %v", m("fail_ratio"))
	}
	if got := m("model.paper_err_pct"); got < 1 || got > 20 {
		t.Errorf("model.paper_err_pct = %v, want the Table 2 / Fig. 2 error (~7%%)", got)
	}
	if m("exp.table2.wall_s") <= 0 || m("exp.table2.points") == 0 {
		t.Errorf("exp.table2: wall %v s, %v points", m("exp.table2.wall_s"), m("exp.table2.points"))
	}
	var sum float64
	for _, l := range profileLayers {
		sum += m("layer." + l + ".self_s")
	}
	if total := m("layer.total_s"); math.Abs(sum-total) > 0.1*total {
		t.Errorf("layer self times sum to %v s, profile total %v s", sum, total)
	}
	for _, f := range []string{"layers.json", "trace.json"} {
		data, err := os.ReadFile(filepath.Join(traced.traceDir, f))
		if err == nil && !json.Valid(data) {
			t.Errorf("%s is not valid JSON", f)
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServeWarm drives a daemon primed with one spec for one second.
func TestServeWarm(t *testing.T) {
	w, _ := workloadByName("serve-warm")
	p := w.plan(7, 1, false)
	p.prime, p.workDir = []string{"table2"}, t.TempDir()
	res, err := execute(p)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, endToEnd)
	if res.Metrics["latency_p50_ms"].Value <= 0 || res.Metrics["throughput_per_s"].Value <= 0 {
		t.Errorf("no warm traffic measured: %+v", res.Metrics)
	}
}

func TestGoldenCheck(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if err := gold.check("table2", true, []byte("{}")); err == nil {
		t.Error("a wrong document passed the golden check")
	}
	if err := gold.check("nosuch", false, nil); err == nil {
		t.Error("an experiment without a golden digest passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{100, 100, 101, 99, 100}, true, "same"},
		{[]float64{120, 121, 119, 120, 120}, true, "worse"},
		{[]float64{120, 121, 119, 120, 120}, false, "better"},
		{[]float64{60, 140, 100, 70, 130}, true, "unresolved"},
	} {
		if _, _, got := verdict(a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.b, c.lower, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"xui/internal/sim.(*Simulator).Step":                  "sim",
		"xui/internal/sweep.RunOpts[go.shape.int,go.shape.x]": "sweep",
		"xui/internal/check.(*Checker).Probe":                 "other",
		"runtime.mallocgc":                                    "go.runtime",
		"aeshashbody":                                         "go.runtime",
		"internal/runtime/maps.(*Map).getWithKey":             "go.runtime",
		"internal/runtime/syscall.Syscall6":                   "go.syscall",
		"internal/sync.(*Mutex).Lock":                         "go.sync",
		"crypto/internal/fips140/sha256.blockSHANI":           "go.crypto",
		"net/http.(*conn).serve":                              "go.net_http",
		"encoding/json.(*encodeState).marshal":                "go.encoding_json",
		"main.gridOp":                                         "bench",
		"strconv.FormatInt":                                   "other",
	} {
		if got := layerOf(funcPackage(fn)); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", fn, got, want)
		}
	}
}
