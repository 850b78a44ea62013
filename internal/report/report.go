// Package report builds the unified per-run JSON document every cmd can
// emit via its -report flag: one schema-versioned file bundling experiment
// results (rows with latency-percentile columns), the metrics-registry
// snapshot (including the aggregate latency histograms), run-cache and
// tape statistics, invariant-check counters, and sweep wall-time/progress
// timings. Session is the run lifecycle the command-line front ends share
// to produce it, together with the run's trace, metrics and profiles.
//
// Determinism contract: Fingerprint() covers exactly the fields that are
// functions of the simulated runs alone — the schema header and the
// Results payload. Host-dependent sections (wall times, sweep timings,
// cache hit rates, per-completion-order "cpu<tid>/" metric keys, and
// check-probe counters, which cached runs legitimately skip) are carried
// in the document but excluded from the fingerprint, so the fingerprint
// is byte-identical across -j 1 vs -j N and cached vs uncached runs
// (TestReportFingerprint pins this).
package report

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"

	"xui/internal/check"
	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/stats"
)

// Schema identifies the report document layout; bump on breaking change.
const Schema = "xui-report/1"

// SweepTiming is one sweep's host-side orchestration record, derived from
// the "sweep/<name>/" metric namespace.
type SweepTiming struct {
	// Name is the sweep label ("fig7", "table2", ...).
	Name string `json:"name"`
	// JobsTotal and JobsDone count grid points; they differ only when the
	// sweep was cancelled.
	JobsTotal uint64 `json:"jobsTotal"`
	JobsDone  uint64 `json:"jobsDone"`
	// Workers is the pool size the sweep ran with.
	Workers int `json:"workers"`
	// WallMs is the sweep's total wall time; EtaMs is the last projected
	// remaining time (0 once complete).
	WallMs float64 `json:"wallMs"`
	EtaMs  float64 `json:"etaMs"`
	// JobUs summarises the per-job wall-time histogram (microseconds).
	JobUs stats.Summary `json:"jobUs"`
}

// TraceInfo records where the run's trace went and how many events it
// holds.
type TraceInfo struct {
	// Path is the trace output file ("" when tracing was off).
	Path string `json:"path,omitempty"`
	// Events is the number of events recorded.
	Events uint64 `json:"events"`
}

// Doc is the unified run report.
type Doc struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Cmd names the emitting binary ("xuibench", "xuisim", ...).
	Cmd string `json:"cmd"`
	// Experiment is the experiment selector the run was invoked with.
	Experiment string `json:"experiment,omitempty"`
	// Quick records whether the reduced-grid mode was on.
	Quick bool `json:"quick"`
	// Workers is the sweep parallelism the run used (-j).
	Workers int `json:"workers"`
	// Results maps experiment name → its row payload (the same structs
	// the table printers format), fingerprint-covered.
	Results map[string]any `json:"results"`
	// Checks is the invariant-check report when checking ran, nil
	// otherwise. Excluded from the fingerprint: cached runs skip probes.
	Checks *check.Report `json:"checks,omitempty"`
	// Metrics is the registry snapshot (counters, gauges, histogram
	// summaries including the cpu/ and tier2/ aggregate latency
	// histograms), nil when the run had no registry.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Cache is the run-cache/tape statistics snapshot.
	Cache *experiments.CacheStatsSnapshot `json:"cache,omitempty"`
	// Sweeps lists per-sweep timing records, sorted by name.
	Sweeps []SweepTiming `json:"sweeps,omitempty"`
	// Trace describes the run's trace output, nil when tracing was off.
	Trace *TraceInfo `json:"trace,omitempty"`
	// WallMs is the run's total wall time.
	WallMs float64 `json:"wallMs"`
}

// New returns an empty report for the named cmd.
func New(cmd string) *Doc {
	return &Doc{Schema: Schema, Cmd: cmd, Results: map[string]any{}}
}

// AddResult attaches one experiment's row payload under name.
func (d *Doc) AddResult(name string, rows any) { d.Results[name] = rows }

// AttachContext snapshots an observability context into the report:
// the metrics registry (from which sweep timings are derived) and the
// tracer's event count. Either half of ctx may be nil.
func (d *Doc) AttachContext(ctx *obs.Context, tracePath string) {
	if ctx == nil {
		return
	}
	if ctx.Metrics.Enabled() {
		snap := ctx.Metrics.Snapshot()
		d.Metrics = &snap
		d.Sweeps = deriveSweeps(snap)
	}
	if ctx.Trace.Enabled() {
		d.Trace = &TraceInfo{Path: tracePath, Events: ctx.Trace.Events()}
	}
}

// deriveSweeps reconstructs per-sweep timing records from the registry's
// "sweep/<name>/" namespace.
func deriveSweeps(snap obs.Snapshot) []SweepTiming {
	names := map[string]bool{}
	for k := range snap.Counters {
		if rest, ok := strings.CutPrefix(k, "sweep/"); ok {
			if name, _, ok := strings.Cut(rest, "/"); ok {
				names[name] = true
			}
		}
	}
	var out []SweepTiming
	for name := range names {
		ns := "sweep/" + name + "/"
		out = append(out, SweepTiming{
			Name:      name,
			JobsTotal: snap.Counters[ns+"jobs_total"],
			JobsDone:  snap.Counters[ns+"jobs_done"],
			Workers:   int(snap.Gauges[ns+"workers"]),
			WallMs:    snap.Gauges[ns+"wall_ms"],
			EtaMs:     snap.Gauges[ns+"eta_ms"],
			JobUs:     snap.Histograms[ns+"job_us"],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fingerprintView is the deterministic subset of a Doc (see the package
// comment for what is excluded and why).
type fingerprintView struct {
	Schema     string         `json:"schema"`
	Cmd        string         `json:"cmd"`
	Experiment string         `json:"experiment,omitempty"`
	Quick      bool           `json:"quick"`
	Results    map[string]any `json:"results"`
}

// Fingerprint serialises the run-deterministic subset of the report:
// byte-identical across worker counts and cache modes for the same
// simulated runs.
func (d *Doc) Fingerprint() ([]byte, error) {
	return json.MarshalIndent(fingerprintView{
		Schema:     d.Schema,
		Cmd:        d.Cmd,
		Experiment: d.Experiment,
		Quick:      d.Quick,
		Results:    d.Results,
	}, "", "  ")
}

// Write serialises the full document as indented JSON.
func (d *Doc) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes the document to path.
func (d *Doc) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
