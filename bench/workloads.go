package main

import (
	"path/filepath"
	"strings"
)

// Experiment sets, each in the registry's canonical order.
var (
	// tier1Experiments are dominated by the cycle-stepped Tier-1 pipeline.
	tier1Experiments = []string{"table2", "fig2", "fig4", "fig5", "worstcase", "section2", "section35", "ablations", "duet"}
	// tier2Experiments are dominated by the discrete-event Tier-2 kernel.
	// scaleseq is left out: it is scale at engine width 1.
	tier2Experiments = []string{"fig6", "fig7", "fig8", "fig9", "multiworker", "scale"}
	// primedSpecs are the quick specs a serve workload computes before its
	// window and then requests warm.
	primedSpecs = []string{"table2", "fig2", "fig4", "fig7", "fig8", "fig9", "worstcase", "duet"}
	// coldSpecs are the quick experiments serve-mixed's cold client submits
	// with fresh seeds, in seeded-shuffled decks of one of each.
	coldSpecs = []string{"fig6", "fig7", "fig9", "multiworker", "duet"}
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	grid []string // full-scale experiments per repetition (grid workloads)
	mode string   // "warm" or "mixed" (serve workloads)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{name: "tier1-grid", grid: tier1Experiments,
		why: "full Tier-1 grids: the cycle-stepped pipeline, tapes and run-cache checkpoints do the work; Tier-2 and the daemon sit idle"},
	{name: "tier2-grid", grid: tier2Experiments,
		why: "full Tier-2 grids: the discrete-event kernel, urt, netsim/lpm and kvstore fixtures do the work; the Tier-1 pipeline sits idle"},
	{name: "serve-warm", mode: "warm",
		why: "two closed-loop clients, paced then flat out, hit primed xuiserve results: only the cache-hit path (server, runcache, net/http) runs"},
	{name: "serve-mixed", mode: "mixed",
		why: "cold seeded jobs compute and persist to the disk tier beside a warm client paced to 1000 ops/s, so cold and warm costs trade off"},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadNames lists the workload names for usage messages.
func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// plan is everything one run needs; the test builds reduced plans.
type plan struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	grid []string // grid workloads: experiments per repetition

	mode        string   // serve workloads: "warm" or "mixed"
	prime       []string // serve workloads: quick specs primed before the window
	cold        []string // serve-mixed: quick experiments of the cold client
	warmClients int      // serve workloads: closed-loop warm clients
	warmRate    float64  // serve workloads: ops/s each warm client paces to; 0 unpaced

	workDir  string // daemon cache and trace scratch space
	traceDir string // traced runs: profiles, spans, per-layer JSON
}

// Warm clients are paced while latency is measured. Flat out, two
// closed-loop clients and the daemon contend for the two cores, and the
// latency then follows the machine's speed far more than the code's. On
// serve-mixed pacing also leaves the cold executor a steady share.
const (
	warmRate      = 2000 // ops/s per serve-warm client
	mixedWarmRate = 1000 // ops/s of serve-mixed's warm client
)

const (
	// setupProbes is how many setup-only children every run starts, so
	// that setup_s is a median over at least this many process starts.
	setupProbes = 9
	// minReps grid repetitions run even past the window, so the median
	// is never a single sample (a traced run needs three; see runGrid).
	minReps = 2
)

// plan builds the full-size plan for a run of w.
func (w workload) plan(seed uint64, seconds float64, traced bool) plan {
	p := plan{
		workload: w.name,
		seed:     seed,
		seconds:  seconds,
		traced:   traced,
		grid:     w.grid,
		mode:     w.mode,
		workDir:  filepath.Join(".bench_build", "work"),
	}
	switch w.mode {
	case "warm":
		p.prime, p.warmClients, p.warmRate = primedSpecs, 2, warmRate
	case "mixed":
		p.prime, p.cold, p.warmClients, p.warmRate = primedSpecs, coldSpecs, 1, mixedWarmRate
	}
	return p
}
