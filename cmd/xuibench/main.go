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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"xui/internal/experiments"
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
	sess := report.Flags(flag.CommandLine, "xuibench")
	flag.Parse()
	names := parseExpList(*exp)
	if err := sess.Start(); err != nil {
		fatal(err)
	}

	var payloads map[string]any
	var err error
	if *plotOut {
		payloads, err = emitPlots(sess.Env(), os.Stdout, *quick)
	} else {
		payloads, err = runExperiments(sess.Env(), os.Stdout, names, *quick, *jsonOut)
	}
	if err = errors.Join(err, sess.Finish(strings.ToLower(*exp), *quick, payloads)); err != nil {
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

// runExperiments runs the named experiments on e through the job
// registry and returns their payloads by name. Text mode writes each
// experiment's tables to w as it finishes; JSON mode writes one object
// keyed by name, for downstream tooling, once all have run.
func runExperiments(e *experiments.Env, w io.Writer, names []string, quick, jsonOut bool) (map[string]any, error) {
	out := map[string]any{}
	for _, n := range names {
		var p any
		var err error
		if jsonOut {
			p, err = e.RunJob(n, quick)
		} else {
			p, err = e.RenderJob(w, n, quick)
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
func emitPlots(e *experiments.Env, w io.Writer, quick bool) (map[string]any, error) {
	out := map[string]any{}
	var err error
	if out["fig5"], err = chart(e, w, "fig5", quick, "Figure 5 (shape) — preemption overhead vs. quantum, matmul",
		"quantum µs", "overhead %", experiments.Fig5Methods, func(r experiments.Fig5Row) (string, float64, float64, bool) {
			return r.Method, r.QuantumUs, r.OverheadPct, r.Workload == "matmul"
		}); err != nil {
		return nil, err
	}
	if out["fig8"], err = chart(e, w, "fig8", quick, "Figure 8 (shape) — free cycles vs. load, 1 NIC",
		"offered load %", "free cycles %", []string{"poll", "xui"}, func(r experiments.Fig8Row) (string, float64, float64, bool) {
			return r.Mode, r.LoadPct, r.FreePct, r.NICs == 1
		}); err != nil {
		return nil, err
	}
	if out["fig9"], err = chart(e, w, "fig9", quick, "Figure 9 (shape) — notify latency vs. noise, 20 µs offloads",
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
func chart[T any](e *experiments.Env, w io.Writer, name string, quick bool, title, xLabel, yLabel string, names []string,
	point func(T) (series string, x, y float64, keep bool)) (any, error) {
	p, err := e.RunJob(name, quick)
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
