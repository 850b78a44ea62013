package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xui/internal/experiments"
)

// childTimeout bounds any one child process.
const childTimeout = 150 * time.Second

// harness runs one plan: it starts every child in turn and keeps what the
// metrics are computed from.
type harness struct {
	p      plan
	exe    string
	runDir string

	failures
	setups  []float64 // child exec → ready, seconds
	peakKiB int64     // largest ru_maxrss over the children
	procs   []process // traced runs: every child's spans

	untraced, profiled, observed []gridOut // grid repetitions by kind
	serve, serveT                *serveOut // serve children (serveT: traced)
	profiles                     []string  // traced children's CPU profiles
}

// execute runs a plan and returns the result to print.
func execute(p plan) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(p.workDir, p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	if p.traced {
		if err := os.RemoveAll(p.traceDir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(p.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	h := &harness{p: p, exe: exe, runDir: runDir}
	run := span{Name: "run", Op: p.workload, Parent: -1, Start: time.Now().UnixMicro()}
	for i := 0; i < setupProbes; i++ {
		if err := h.probe(i); err != nil {
			return nil, err
		}
	}
	if len(p.grid) > 0 {
		err = h.runGrid()
	} else {
		err = h.runServe()
	}
	if err != nil {
		return nil, err
	}
	run.End = time.Now().UnixMicro()

	res := &result{Attempted: h.Attempted, Failed: h.Failed}
	res.Correct = h.Failed == 0 && h.Attempted > 0
	for _, e := range h.Errors {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	if !p.traced {
		res.Metrics = fill(endToEnd, h.endToEnd())
		return res, nil
	}
	funcs := map[string]int64{}
	for _, path := range h.profiles {
		if err := profileSelf(path, funcs); err != nil {
			return nil, err
		}
	}
	res.Metrics = fill(perLayer, h.perLayer(funcs))
	if err := h.writeTrace(run, res.Metrics, funcs); err != nil {
		return nil, err
	}
	return res, nil
}

// spawn runs one child of the given role to completion and decodes its
// result line into out (nil: the child reports none). The time from
// starting the process to its "ready" line is a setup sample.
func (h *harness) spawn(role, label string, args []string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, h.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	outer := span{Name: role + "-process", Op: label, Parent: -1, Start: time.Now().UnixMicro()}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s child: %w", label, err)
	}
	ready := false
	var payload []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 256<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case !ready && string(line) == "ready":
			h.setups = append(h.setups, time.Since(start).Seconds())
			ready = true
		case bytes.HasPrefix(line, []byte("result ")):
			payload = bytes.Clone(line[len("result "):])
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	outer.End = time.Now().UnixMicro()
	if out != nil {
		fmt.Fprintf(os.Stderr, "bench: %s child %s done in %.2f s\n", role, label, time.Since(start).Seconds())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		h.peakKiB = max(h.peakKiB, ru.Maxrss)
	}
	switch {
	case waitErr != nil:
		return fmt.Errorf("%s child: %w", label, waitErr)
	case scanErr != nil:
		return fmt.Errorf("%s child output: %w", label, scanErr)
	case !ready:
		return fmt.Errorf("%s child never reported ready", label)
	case out != nil && payload == nil:
		return fmt.Errorf("%s child reported no result", label)
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("%s child result: %w", label, err)
		}
	}
	if h.p.traced {
		p := process{label: label, outer: outer}
		// Setup probes write no spans.
		if p.spans, err = readSpans(h.tracePath(label + ".spans.json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		h.procs = append(h.procs, p)
	}
	return nil
}

func (h *harness) tracePath(name string) string { return filepath.Join(h.p.traceDir, name) }

// tracedArgs adds the profile and span outputs of a traced child.
func (h *harness) tracedArgs(args []string, label string) []string {
	prof := h.tracePath(label + ".pprof")
	h.profiles = append(h.profiles, prof)
	return append(args, "-cpuprofile", prof, "-spans", h.tracePath(label+".spans.json"))
}

// probe starts a child that only reports ready.
func (h *harness) probe(i int) error {
	label := "probe" + strconv.Itoa(i)
	if len(h.p.grid) > 0 {
		return h.spawn("grid", label, nil, nil)
	}
	return h.spawn("serve", label, h.serveArgs(label, true), nil)
}

// runGrid runs repetitions until the window has passed, and at least
// minReps. A traced run cycles three kinds of repetition: untraced
// (timings), profiled (CPU profile and spans, whose overhead against the
// untraced ones is trace_overhead_pct) and observed (an obs registry for
// the simulated-work counts). The registry is kept out of the profiled
// repetitions because its per-event counters would dominate the profile.
func (h *harness) runGrid() error {
	reps := minReps
	if h.p.traced {
		reps = 3
	}
	start := time.Now()
	for rep := 0; rep < reps || time.Since(start).Seconds() < h.p.seconds; rep++ {
		kind := 0
		if h.p.traced {
			kind = rep % 3
		}
		label := "rep" + strconv.Itoa(rep)
		args := []string{"-exps", strings.Join(h.p.grid, ",")}
		switch kind {
		case 1:
			args = h.tracedArgs(args, label)
		case 2:
			args = append(args, "-obs")
		}
		var out gridOut
		if err := h.spawn("grid", label, args, &out); err != nil {
			return err
		}
		h.merge(out.failures)
		switch kind {
		case 0:
			h.untraced = append(h.untraced, out)
		case 1:
			h.profiled = append(h.profiled, out)
		case 2:
			h.observed = append(h.observed, out)
		}
	}
	return nil
}

func (h *harness) serveArgs(label string, probe bool) []string {
	args := []string{"-workdir", filepath.Join(h.runDir, label)}
	if h.p.mode == "mixed" {
		args = append(args, "-disk")
	}
	if probe {
		return append(args, "-probe")
	}
	return append(args,
		"-seed", strconv.FormatUint(h.p.seed, 10),
		"-prime", strings.Join(h.p.prime, ","),
		"-cold", strings.Join(h.p.cold, ","),
		"-clients", strconv.Itoa(h.p.warmClients),
		"-warm-rate", strconv.FormatFloat(h.p.warmRate, 'f', -1, 64),
		// serve-warm measures capacity flat out in the window's second half.
		"-saturate="+strconv.FormatBool(h.p.mode == "warm"))
}

// runServe runs one daemon for the window; a traced run splits the window
// between an untraced and a traced daemon.
func (h *harness) runServe() error {
	seconds := h.p.seconds
	if h.p.traced {
		seconds /= 2
	}
	for _, traced := range []bool{false, true} {
		if traced && !h.p.traced {
			break
		}
		label := "serve"
		if traced {
			label = "serve-traced"
		}
		args := append(h.serveArgs(label, false), "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64))
		if traced {
			args = h.tracedArgs(args, label)
		}
		out := &serveOut{}
		if err := h.spawn("serve", label, args, out); err != nil {
			return err
		}
		h.merge(out.failures)
		if traced {
			h.serveT = out
		} else {
			h.serve = out
		}
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (h *harness) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(h.setups),
		"peak_rss_mb": float64(h.peakKiB) / 1024,
	}
	switch {
	case len(h.p.grid) > 0:
		var walls []float64
		var total float64
		var results int
		for _, r := range h.untraced {
			walls = append(walls, r.WallS)
			total += r.WallS
			results += r.Attempted - r.Failed
		}
		m["latency_p50_ms"] = 1000 * median(walls)
		if total > 0 {
			m["throughput_per_s"] = float64(results) / total
		}
	case h.serve != nil:
		s := h.serve
		m["latency_p50_ms"] = s.Warm.P50
		switch {
		case h.p.mode == "mixed" && s.ColdWindowS > 0:
			m["throughput_per_s"] = float64(s.Cold.N) / s.ColdWindowS
		case s.SatWindowS > 0:
			m["throughput_per_s"] = float64(s.SatOps) / s.SatWindowS
		}
	}
	return m
}

// perLayer computes the per-layer metrics of a traced run from the flat
// CPU time per function of its profiles: profile and model counts come
// from the traced children, harness timings from the untraced ones.
func (h *harness) perLayer(funcs map[string]int64) map[string]float64 {
	m := map[string]float64{}
	if h.Attempted > 0 {
		m["fail_ratio"] = float64(h.Failed) / float64(h.Attempted)
	}
	// Per traced child: per repetition for grids, per daemon for serve.
	n := float64(max(len(h.profiles), 1))
	for fn, ns := range funcs {
		s := float64(ns) / 1e9 / n
		m["layer."+layerOf(funcPackage(fn))+".self_s"] += s
		m["layer.total_s"] += s
	}

	if len(h.p.grid) > 0 {
		h.gridLayers(m)
	} else {
		h.serveLayers(m)
	}
	return m
}

func (h *harness) gridLayers(m map[string]float64) {
	expWall, expAlloc := map[string][]float64{}, map[string][]float64{}
	var walls, fps, alloc, gcs, pauses []float64
	for _, r := range h.untraced {
		walls = append(walls, r.WallS)
		var fp float64
		for _, e := range r.Exps {
			expWall[e.Name] = append(expWall[e.Name], e.WallS)
			expAlloc[e.Name] = append(expAlloc[e.Name], e.AllocMiB)
			fp += e.FingerprintS
		}
		fps = append(fps, fp)
		alloc = append(alloc, r.Go.AllocGiB)
		gcs = append(gcs, float64(r.Go.GCCycles))
		pauses = append(pauses, r.Go.GCPauseMs)
		m["go.heap_inuse_peak_mb"] = max(m["go.heap_inuse_peak_mb"], r.Go.HeapPeakMiB)
	}
	for name, v := range expWall {
		m["exp."+name+".wall_s"] = median(v)
		m["exp."+name+".alloc_mb"] = median(expAlloc[name])
	}
	m["report.fingerprint_s"] = median(fps)
	m["go.alloc_gb"], m["go.gc_cycles"], m["go.gc_pause_ms"] = median(alloc), median(gcs), median(pauses)
	if len(h.untraced) > 0 {
		last := h.untraced[len(h.untraced)-1]
		cacheLayers(m, last.Cache)
		m["model.paper_err_pct"] = last.PaperErrPct
	}
	if len(h.observed) > 0 {
		last := h.observed[len(h.observed)-1]
		for _, e := range last.Exps {
			m["exp."+e.Name+".points"] = float64(e.Points)
		}
		modelLayers(m, last.Model)
		if last.Model.EventsFired > 0 {
			m["sim.host_ns_per_event"] = 1e9 * median(walls) / float64(last.Model.EventsFired)
		}
	}
	var pw []float64
	for _, r := range h.profiled {
		pw = append(pw, r.WallS)
	}
	if mw := median(walls); mw > 0 && len(pw) > 0 {
		m["trace_overhead_pct"] = 100 * (median(pw)/mw - 1)
	}
}

func (h *harness) serveLayers(m map[string]float64) {
	s := h.serve
	if s == nil {
		return
	}
	m["http.submit_p50_ms"], m["http.submit_p99_ms"] = s.Submit.P50, s.Submit.P99
	m["http.result_p50_ms"], m["http.result_p99_ms"] = s.Result.P50, s.Result.P99
	m["http.result_kb"] = s.ResultKiB
	m["serve.warm_p50_ms"], m["serve.warm_p99_ms"] = s.Warm.P50, s.Warm.P99
	if s.SatWindowS > 0 {
		m["serve.warm_rps"] = float64(s.SatOps) / s.SatWindowS
	} else if s.WindowS > 0 {
		m["serve.warm_rps"] = float64(s.Warm.N) / s.WindowS
	}
	m["serve.cold_p50_ms"], m["serve.cold_p90_ms"] = s.Cold.P50, s.Cold.P90
	m["serve.queue_wait_p50_ms"] = s.QueueWait.P50
	m["serve.run_p50_ms"], m["serve.run_p90_ms"] = s.Run.P50, s.Run.P90
	m["serve.fetch_p50_ms"] = s.Fetch.P50
	m["serve.prime_s"] = s.PrimeS
	m["server.shed"] = float64(s.Stats.Shed)
	m["server.jobs_failed"] = float64(s.Metrics.Counters["server/jobs_failed"])
	m["server.cache_answered"] = float64(s.Metrics.Counters["server/cache_answered"])
	m["server.jobs_cache.hits"] = float64(s.Stats.JobsCache.Hits)
	m["server.jobs_cache.misses"] = float64(s.Stats.JobsCache.Misses)
	m["server.jobs_cache.disk_stores"] = float64(s.Stats.JobsCache.DiskStores)
	m["runcache.disk_load_p50_ms"] = s.DiskLoad.P50
	m["runcache.disk_mb"] = s.DiskMiB
	m["model.paper_err_pct"] = s.PaperErrPct
	m["go.alloc_gb"], m["go.gc_cycles"], m["go.gc_pause_ms"] = s.Go.AllocGiB, float64(s.Go.GCCycles), s.Go.GCPauseMs
	m["go.heap_inuse_peak_mb"] = s.Go.HeapPeakMiB
	cacheLayers(m, s.Stats.Cache)
	if t := h.serveT; t != nil {
		modelLayers(m, countsFrom(t.Metrics))
		if s.Warm.P50 > 0 {
			m["trace_overhead_pct"] = 100 * (t.Warm.P50/s.Warm.P50 - 1)
		}
	}
}

func modelLayers(m map[string]float64, c modelCounts) {
	m["sim.events_fired"] = float64(c.EventsFired)
	m["tier1.delivered"] = float64(c.Delivered)
	m["model.tier1_delivery_p99_cy"] = float64(c.Tier1P99Cy)
	m["model.tier2_delivery_p99_cy"] = float64(c.Tier2P99Cy)
}

func cacheLayers(m map[string]float64, c experiments.CacheStatsSnapshot) {
	for _, s := range c.Caches {
		if name, ok := strings.CutPrefix(s.Name, "tier1/"); ok {
			m["runcache.tier1_"+name+".hits"] = float64(s.Hits)
			m["runcache.tier1_"+name+".misses"] = float64(s.Misses)
		}
	}
	m["tapes.mb"] = float64(c.Tapes.Bytes) / (1 << 20)
	m["tapes.recordings"] = float64(c.Tapes.Recordings)
	m["tapes.replays"] = float64(c.Tapes.Replays)
}

// writeTrace writes the traced run's artifacts: the per-layer JSON (the
// metrics plus the profile and span breakdowns) and the Chrome trace.
func (h *harness) writeTrace(run span, metrics map[string]metric, funcs map[string]int64) error {
	pkgs := map[string]float64{}
	for fn, ns := range funcs {
		pkgs[funcPackage(fn)] += float64(ns) / 1e9
	}
	type pkgTime struct {
		Package string  `json:"package"`
		Layer   string  `json:"layer"`
		SelfS   float64 `json:"self_s"`
	}
	var byPkg []pkgTime
	for p, s := range pkgs {
		byPkg = append(byPkg, pkgTime{p, layerOf(p), s})
	}
	sort.Slice(byPkg, func(i, j int) bool { return byPkg[i].SelfS > byPkg[j].SelfS })
	doc := map[string]any{
		"workload": h.p.workload,
		"profiles": len(h.profiles),
		"metrics":  metrics,
		"packages": byPkg,
		"spans":    spanStats(run, h.procs),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(h.tracePath("layers.json"), data, 0o644); err != nil {
		return err
	}
	return writeChromeTrace(h.tracePath("trace.json"), run, h.procs)
}
