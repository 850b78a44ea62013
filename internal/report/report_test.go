package report

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/sim"
)

// TestReportFingerprint is the unified-report determinism gate: the same
// small experiment grid, run under every combination of worker count
// (-j 1 vs -j 8) and run-cache mode, must produce byte-identical report
// fingerprints. This is the -report analogue of the experiments package's
// TestDeterministicFingerprint, and it additionally covers the new
// latency-percentile columns (fig7/fig8 DelivP*Cy, table2 Delivery,
// worstcase distributions), which are exact-integer histogram outputs.
func TestReportFingerprint(t *testing.T) {
	horizon := 2 * sim.Millisecond
	build := func(workers int, caching bool) []byte {
		e := &experiments.Env{Workers: workers, NoCache: !caching}

		d := New("report-test")
		d.Experiment = "fingerprint"
		d.Quick = true
		d.Workers = workers
		d.AddResult("table2", e.Table2())
		d.AddResult("fig7", e.Fig7([]float64{20000}, horizon))
		d.AddResult("fig8", e.Fig8([]int{1}, []float64{30}, horizon))
		d.AddResult("worstcase", e.WorstCase([]int{8}))

		fp, err := d.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	ref := build(1, false)
	if !strings.Contains(string(ref), "DelivP99Cy") {
		t.Fatal("fingerprint does not carry delivery-latency percentile columns")
	}
	// Fingerprints must not depend on worker count or cache mode; Workers
	// is document metadata, not fingerprint material.
	for _, cfg := range []struct {
		workers int
		caching bool
	}{{8, false}, {1, true}, {8, true}} {
		got := build(cfg.workers, cfg.caching)
		if !bytes.Equal(ref, got) {
			t.Errorf("fingerprint differs at -j %d cache=%v:\n ref: %.300s\n got: %.300s",
				cfg.workers, cfg.caching, ref, got)
		}
	}
}

// TestReportDocument exercises the full document shape: results, metrics
// snapshot with derived sweep timings, and valid JSON output.
func TestReportDocument(t *testing.T) {
	ctx := &obs.Context{Trace: obs.NewStreamTracer(io.Discard), Metrics: obs.NewRegistry()}
	e := &experiments.Env{Workers: 2, Obs: ctx}

	d := New("report-test")
	d.AddResult("worstcase", e.WorstCase([]int{4}))
	snap := experiments.CacheStats()
	d.Cache = &snap
	d.AttachContext(ctx, "trace.json")

	if d.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
	var st *SweepTiming
	for i := range d.Sweeps {
		if d.Sweeps[i].Name == "worstcase" {
			st = &d.Sweeps[i]
		}
	}
	if st == nil {
		t.Fatalf("no sweep timing derived for worstcase: %+v", d.Sweeps)
	}
	if st.JobsTotal != 2 || st.JobsDone != 2 || st.Workers != 2 {
		t.Errorf("sweep timing fields wrong: %+v", st)
	}
	if st.JobUs.Count != 2 {
		t.Errorf("per-job wall-time histogram count = %d, want 2", st.JobUs.Count)
	}
	if d.Trace == nil || d.Trace.Path != "trace.json" || d.Trace.Events == 0 {
		t.Errorf("trace info wrong: %+v", d.Trace)
	}

	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if round["schema"] != Schema {
		t.Errorf("schema = %v", round["schema"])
	}
}
