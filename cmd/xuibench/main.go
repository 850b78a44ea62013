// Command xuibench regenerates the paper's tables and figures from the
// simulation models. -exp takes a comma-separated list of experiments:
// table2, fig2, fig4, fig5, fig6, fig7, fig8, fig9, worstcase, section2,
// section35, ablations, multiworker and duet (together "all", the
// default), plus scale, which runs only when named.
//
// Output is the same rows/series the paper reports, with the paper's
// measured values alongside where applicable. Every mode — text tables,
// -json, -report and -plot — runs the grids of the job registry in
// internal/experiments, the same payloads xuiserve serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"xui/internal/check"
	"xui/internal/cpu"
	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/plot"
	"xui/internal/report"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	exp := flag.String("exp", "all", "experiment(s) to run, comma-separated: "+expChoices()+" (e.g. -exp fig4,fig5,section2)")
	quick := flag.Bool("quick", false, "smaller sweeps / shorter horizons")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	plotOut := flag.Bool("plot", false, "render ASCII charts of the curve figures (fig5 on matmul, fig8 at one NIC, fig9's 20 µs class) instead of the -exp tables")
	tracePath := flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON trace of the run to this file")
	metricsPath := flag.String("metrics", "", "write a metrics-registry JSON snapshot of the run to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for the grid-experiment sweeps; results are identical at any value")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "worker goroutines driving the sharded Tier-2 engine (scale experiments); results are identical at any value")
	reportPath := flag.String("report", "", "write a unified schema-versioned run report (experiment rows, latency histograms, cache/check/sweep stats) to this file")
	nocache := flag.Bool("nocache", false, "disable the Tier-1 run cache, recorded instruction tapes and core pooling; every run is computed fresh (rows are identical either way)")
	fastforward := flag.Bool("fastforward", true, "run Tier-1 cores on the decoded fast-forward engine; -fastforward=false forces the interpreted reference engine (rows are identical either way)")
	checkOn := flag.Bool("check", false, "run with invariant checking: assert the protocol conservation laws on every delivery, print the check report, exit nonzero on violations")
	flag.Parse()
	experiments.SetWorkers(*workers)
	experiments.SetShards(*shards)
	experiments.SetCaching(!*nocache)
	cpu.SetFastForward(*fastforward)

	var checkCol *check.Collector
	if *checkOn {
		checkCol = check.NewCollector()
		experiments.SetChecking(checkCol)
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	var ctx *obs.Context
	if *tracePath != "" || *metricsPath != "" || *reportPath != "" {
		ctx = &obs.Context{}
		if *tracePath != "" {
			// Traces stream to disk incrementally: bounded memory, valid
			// JSON even if the run is cut short.
			tr, err := obs.StreamFile(*tracePath)
			if err != nil {
				fatal(err)
			}
			ctx.Trace = tr
		}
		// Reports read the aggregate latency histograms out of the
		// registry, so -report installs one too.
		if *metricsPath != "" || *reportPath != "" {
			ctx.Metrics = obs.NewRegistry()
		}
		experiments.SetObservability(ctx)
	}
	var rep *report.Doc
	if *reportPath != "" {
		rep = report.New("xuibench")
		rep.Experiment = strings.ToLower(*exp)
		rep.Quick = *quick
		rep.Workers = *workers
		rep.CacheOn = !*nocache
	}
	start := time.Now()
	finish := func() {
		if ctx != nil && ctx.Metrics != nil {
			experiments.PublishCacheStats(ctx.Metrics)
			if checkCol != nil {
				checkCol.Report().PublishTo(ctx.Metrics)
			}
		}
		if rep != nil {
			if checkCol != nil {
				cr := checkCol.Report()
				rep.Checks = &cr
			}
			cs := experiments.CacheStats()
			rep.Cache = &cs
			rep.AttachContext(ctx, *tracePath)
			rep.WallMs = float64(time.Since(start).Microseconds()) / 1000
			if err := rep.WriteFile(*reportPath); err != nil {
				fatal(err)
			}
		}
		if err := ctx.ExportFiles(*tracePath, *metricsPath); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		if checkCol != nil {
			cr := checkCol.Report()
			fmt.Fprintln(os.Stderr, cr)
			if !cr.OK() {
				os.Exit(1)
			}
		}
	}

	names := parseExpList(*exp)
	var payloads map[string]any
	if *plotOut {
		payloads, err = emitPlots(os.Stdout, *quick)
	} else {
		payloads, err = runExperiments(os.Stdout, names, *quick, *jsonOut)
	}
	if rep != nil {
		for n, p := range payloads {
			rep.AddResult(n, p)
		}
	}
	finish()
	if err != nil {
		fatal(err)
	}
}

// expChoices lists the -exp values, built from the job registry.
func expChoices() string {
	var byName []string
	for _, n := range experiments.JobNames() {
		if !slices.Contains(experiments.AllJobNames(), n) {
			byName = append(byName, n)
		}
	}
	s := strings.Join(experiments.JobNames(), ", ") + ", or all"
	if len(byName) > 0 {
		s += " (everything but " + strings.Join(byName, ", ") + ")"
	}
	return s
}

// parseExpList resolves a comma-separated -exp value against the job
// registry, expanding "all" in place and otherwise keeping the caller's
// order (deduplicated). Unknown names exit with a usage error.
func parseExpList(exp string) []string {
	var names []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, raw := range strings.Split(strings.ToLower(exp), ",") {
		name := strings.TrimSpace(raw)
		switch {
		case name == "":
		case name == "all":
			for _, n := range experiments.AllJobNames() {
				add(n)
			}
		case experiments.JobKnown(name):
			add(name)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %s\n", name, expChoices())
			os.Exit(2)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "empty -exp; choose from %s\n", expChoices())
		os.Exit(2)
	}
	return names
}

// runExperiments runs the named experiments through the job registry and
// returns their payloads by name. Text mode writes each experiment's
// tables to w as it finishes; JSON mode writes one object keyed by name,
// for downstream tooling, once all have run.
func runExperiments(w io.Writer, names []string, quick, jsonOut bool) (map[string]any, error) {
	out := map[string]any{}
	for _, n := range names {
		var p any
		var err error
		if jsonOut {
			p, err = experiments.RunJob(n, quick)
		} else {
			p, err = experiments.RenderJob(w, n, quick)
		}
		if err != nil {
			return nil, err
		}
		out[n] = p
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return out, enc.Encode(out)
	}
	return out, nil
}

// emitPlots charts the shape of the curve figures from their registry
// payloads — fig5 on matmul, fig8 at one NIC, fig9's 20 µs offload
// class — and returns the payloads.
func emitPlots(w io.Writer, quick bool) (map[string]any, error) {
	out := map[string]any{}
	var err error
	if out["fig5"], err = chart(w, "fig5", quick, "Figure 5 (shape) — preemption overhead vs. quantum, matmul",
		"quantum µs", "overhead %", experiments.Fig5Methods, func(r experiments.Fig5Row) (string, float64, float64, bool) {
			return r.Method, r.QuantumUs, r.OverheadPct, r.Workload == "matmul"
		}); err != nil {
		return nil, err
	}
	if out["fig8"], err = chart(w, "fig8", quick, "Figure 8 (shape) — free cycles vs. load, 1 NIC",
		"offered load %", "free cycles %", []string{"poll", "xui"}, func(r experiments.Fig8Row) (string, float64, float64, bool) {
			return r.Mode, r.LoadPct, r.FreePct, r.NICs == 1
		}); err != nil {
		return nil, err
	}
	if out["fig9"], err = chart(w, "fig9", quick, "Figure 9 (shape) — notify latency vs. noise, 20 µs offloads",
		"noise %", "notify µs", experiments.Fig9Methods, func(r experiments.Fig9Row) (string, float64, float64, bool) {
			return r.Method, r.NoisePct, r.NotifyUs, r.Class == "20us"
		}); err != nil {
		return nil, err
	}
	return out, nil
}

// chart runs the named experiment and charts its rows as one series per
// entry of names, in that order, returning the payload. point maps a row
// to its series and coordinates, or reports false to leave the row out.
func chart[T any](w io.Writer, name string, quick bool, title, xLabel, yLabel string, names []string,
	point func(T) (series string, x, y float64, keep bool)) (any, error) {
	p, err := experiments.RunJob(name, quick)
	if err != nil {
		return nil, err
	}
	rows, ok := p.([]T)
	if !ok {
		return nil, fmt.Errorf("%s: payload is %T, not %T", name, p, rows)
	}
	series := make([]plot.Series, len(names))
	for i, n := range names {
		series[i].Name = n
	}
	for _, r := range rows {
		n, x, y, keep := point(r)
		if i := slices.Index(names, n); keep && i >= 0 {
			series[i].X = append(series[i].X, x)
			series[i].Y = append(series[i].Y, y)
		}
	}
	fmt.Fprint(w, "\n", plot.Chart(title, xLabel, yLabel, series, 60, 14))
	return p, nil
}
