// Command xuitrace runs a single workload trace through the cycle-level
// out-of-order pipeline model, optionally delivering interrupts, and
// prints per-run statistics and the per-interrupt delivery timeline —
// the tool behind the paper's §3 reverse-engineering-style studies.
//
// Examples:
//
//	xuitrace -workload linpack -uops 200000
//	xuitrace -workload fib -strategy tracked -period 10000
//	xuitrace -timeline
//	xuitrace -chrome out.json          # Fig. 2 scenario, Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"xui/internal/check"
	"xui/internal/cpu"
	"xui/internal/experiments"
	"xui/internal/isa"
	"xui/internal/obs"
	"xui/internal/report"
	"xui/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "linpack", "fib | linpack | memops | matmul | base64 | pointerchase | rdtsc")
	strategy := flag.String("strategy", "flush", "flush | drain | tracked")
	uops := flag.Uint64("uops", 200000, "program micro-ops to commit")
	period := flag.Uint64("period", 0, "interrupt period in cycles (0 = none)")
	skipNotif := flag.Bool("kbtimer", false, "deliver as KB_Timer/device interrupts (skip UPID routing)")
	safepoints := flag.Int("safepoints", 0, "annotate a safepoint every N ops and gate delivery on them")
	timeline := flag.Bool("timeline", false, "print the Figure 2 UIPI timeline and exit")
	seed := flag.Uint64("seed", 1, "workload seed")
	chrome := flag.String("chrome", "", "write a Chrome trace-event / Perfetto JSON trace to this file (with -period 0, traces the Fig. 2 scenario)")
	metricsPath := flag.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	reportPath := flag.String("report", "", "write a unified schema-versioned run report (run stats, latency digests, cache/check counters) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for any grid sweeps experiments run; results are identical at any value")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "worker goroutines for any sharded Tier-2 engines experiments build; results are identical at any value")
	nocache := flag.Bool("nocache", false, "disable the Tier-1 run cache, recorded instruction tapes and core pooling; every run is computed fresh (rows are identical either way)")
	fastforward := flag.Bool("fastforward", true, "run Tier-1 cores on the decoded fast-forward engine; -fastforward=false forces the interpreted reference engine (rows are identical either way)")
	checkOn := flag.Bool("check", false, "run with invariant checking: assert the pipeline/protocol invariants on every delivery, print the check report, exit nonzero on violations")
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
	if *chrome != "" || *metricsPath != "" || *reportPath != "" {
		ctx = obs.NewContext()
		experiments.SetObservability(ctx)
	}
	var rep *report.Doc
	if *reportPath != "" {
		rep = report.New("xuitrace")
		rep.Workers = *workers
		rep.CacheOn = !*nocache
	}
	start := time.Now()
	finish := func() {
		if checkCol != nil && ctx != nil && ctx.Metrics != nil {
			checkCol.Report().PublishTo(ctx.Metrics)
		}
		if rep != nil {
			if checkCol != nil {
				cr := checkCol.Report()
				rep.Checks = &cr
			}
			cs := experiments.CacheStats()
			rep.Cache = &cs
			rep.AttachContext(ctx, *chrome)
			rep.WallMs = float64(time.Since(start).Microseconds()) / 1000
			if err := rep.WriteFile(*reportPath); err != nil {
				fatal(err)
			}
		}
		if err := ctx.ExportFiles(*chrome, *metricsPath); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		if checkCol != nil {
			rep := checkCol.Report()
			fmt.Fprintln(os.Stderr, rep)
			if !rep.OK() {
				os.Exit(1)
			}
		}
	}

	if *chrome != "" && *period == 0 && !*timeline {
		// No custom interrupt run configured: trace the paper's Figure 2
		// scenario (senduipi loop sender offset + flush-strategy receiver
		// on the rdtsc measurement loop).
		r := experiments.TracedFig2(ctx)
		if rep != nil {
			rep.Experiment = "fig2-trace"
			rep.AddResult("fig2", r)
		}
		finish()
		fmt.Printf("traced the Fig. 2 scenario to %s (%d events; arrive=%.0f deliveryDone=%.0f)\n",
			*chrome, ctx.Trace.Len(), r.Arrive, r.DeliveryDone)
		return
	}

	if *timeline {
		payload, err := experiments.RenderJob(os.Stdout, "fig2", false)
		if err != nil {
			fatal(err)
		}
		if rep != nil {
			rep.Experiment = "timeline"
			rep.AddResult("fig2", payload)
		}
		finish()
		return
	}

	var prog isa.Stream
	switch *workload {
	case "pointerchase":
		prog = trace.NewPointerChase(*seed, 256<<20, 0)
	case "rdtsc":
		prog = trace.NewRdtscLoop()
	default:
		prog = trace.ByName(*workload, *seed)
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *safepoints > 0 {
		prog = trace.NewSafepointAnnotated(prog, *safepoints)
	}

	var strat cpu.Strategy
	switch *strategy {
	case "flush":
		strat = cpu.Flush
	case "drain":
		strat = cpu.Drain
	case "tracked":
		strat = cpu.Tracked
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	cfg := cpu.DefaultConfig()
	cfg.Strategy = strat
	cfg.SafepointMode = *safepoints > 0
	cfg.Ucode = experiments.Ucode()
	c, port := experiments.NewReceiver(strat, prog)
	_ = port
	if *safepoints > 0 {
		// Rebuild with safepoint mode enabled.
		c = cpu.New(cfg, prog, port)
		if ctx != nil {
			c.SetObserver(obs.NewPipeline(ctx.Trace, ctx.Metrics, obs.Tier1Pid, 0))
		}
	}
	if *period > 0 {
		c.PeriodicInterrupts(*period, *period, func() cpu.Interrupt {
			if !*skipNotif {
				port.MarkRemoteWrite(experiments.UPIDAddr)
			}
			return cpu.Interrupt{Vector: 1, SkipNotification: *skipNotif, Handler: experiments.TinyHandler()}
		})
	}
	var cc *check.CoreChecker
	if checkCol != nil {
		cc = check.WrapCore(checkCol, c, "tier1")
	}
	res := c.Run(*uops, *uops*500)
	if cc != nil {
		cc.FinishCore()
	}

	fmt.Printf("workload=%s strategy=%s uops=%d\n", prog.Name(), strat, res.CommittedProgram)
	fmt.Printf("cycles=%d IPC=%.2f squashed(program)=%d squashed(intr)=%d\n",
		res.Cycles, res.IPC, res.SquashedProgram, res.SquashedOther)
	if len(res.Interrupts) > 0 {
		var lat, reinj float64
		delivered := 0
		for _, r := range res.Interrupts {
			if r.UiretDone == 0 {
				continue
			}
			lat += float64(r.UiretDone - r.Arrive)
			reinj += float64(r.Reinjections)
			delivered++
		}
		fmt.Printf("interrupts: %d delivered of %d; mean delivery latency %.0f cycles; %.2f reinjections/intr\n",
			delivered, len(res.Interrupts), lat/float64(delivered), reinj/float64(delivered))
	}
	if rep != nil {
		rep.Experiment = "run"
		rep.AddResult("run", map[string]any{
			"workload":        prog.Name(),
			"strategy":        strat.String(),
			"cycles":          res.Cycles,
			"ipc":             res.IPC,
			"committed":       res.CommittedProgram,
			"squashedProgram": res.SquashedProgram,
			"squashedOther":   res.SquashedOther,
			"interrupts":      len(res.Interrupts),
			"latency":         res.LatencyDigest(),
		})
	}
	finish()
}
