// Command xuitrace runs a single workload trace through the cycle-level
// out-of-order pipeline model, optionally delivering interrupts, and
// prints per-run statistics and the mean delivery latency — the tool
// behind the paper's §3 reverse-engineering-style studies.
//
// Examples:
//
//	xuitrace -workload linpack -uops 200000
//	xuitrace -workload fib -strategy tracked -period 10000
//	xuitrace -trace out.json           # Fig. 2 scenario, Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"

	"xui/internal/check"
	"xui/internal/cpu"
	"xui/internal/experiments"
	"xui/internal/isa"
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
	seed := flag.Uint64("seed", 1, "workload seed")
	sess := report.Flags(flag.CommandLine, "xuitrace")
	flag.Parse()
	if err := sess.Start(); err != nil {
		fatal(err)
	}
	env := sess.Env()

	if tracePath := flag.Lookup("trace").Value.String(); tracePath != "" && *period == 0 {
		// No custom interrupt run configured: trace the paper's Figure 2
		// scenario (senduipi loop sender offset + flush-strategy receiver
		// on the rdtsc measurement loop).
		r := env.TracedFig2()
		if err := sess.Finish("fig2-trace", false, map[string]any{"fig2": r}); err != nil {
			fatal(err)
		}
		fmt.Printf("traced the Fig. 2 scenario to %s (%d events; arrive=%.0f deliveryDone=%.0f)\n",
			tracePath, env.Obs.Trace.Events(), r.Arrive, r.DeliveryDone)
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
	c, port := env.NewReceiverConfig(cfg, prog)
	if *period > 0 {
		c.PeriodicInterrupts(*period, *period, func() cpu.Interrupt {
			if !*skipNotif {
				port.MarkRemoteWrite(experiments.UPIDAddr)
			}
			return cpu.Interrupt{Vector: 1, SkipNotification: *skipNotif, Handler: experiments.TinyHandler()}
		})
	}
	var cc *check.CoreChecker
	if env.Check != nil {
		cc = check.WrapCore(env.Check, c, "tier1")
	}
	res := c.Run(*uops, *uops*500)
	if cc != nil {
		cc.FinishCore()
	}

	fmt.Printf("workload=%s strategy=%s uops=%d\n", prog.Name(), strat, res.CommittedProgram)
	fmt.Printf("cycles=%d IPC=%.2f squashed(program)=%d squashed(intr)=%d\n",
		res.Cycles, res.IPC, res.SquashedProgram, res.SquashedOther)
	if len(res.Interrupts) > 0 {
		fmt.Println(interruptSummary(res.Interrupts))
	}
	run := map[string]any{
		"workload":        prog.Name(),
		"strategy":        strat.String(),
		"cycles":          res.Cycles,
		"ipc":             res.IPC,
		"committed":       res.CommittedProgram,
		"squashedProgram": res.SquashedProgram,
		"squashedOther":   res.SquashedOther,
		"interrupts":      len(res.Interrupts),
		"latency":         res.LatencyDigest(),
	}
	if err := sess.Finish("run", false, map[string]any{"run": run}); err != nil {
		fatal(err)
	}
}

// interruptSummary is the one-line delivery summary of an interrupted
// run. The means cover completed deliveries only (uiret done), so they
// are printed only when at least one completed.
func interruptSummary(recs []cpu.IntrRecord) string {
	var lat, reinj float64
	delivered := 0
	for _, r := range recs {
		if r.UiretDone == 0 {
			continue
		}
		lat += float64(r.UiretDone - r.Arrive)
		reinj += float64(r.Reinjections)
		delivered++
	}
	line := fmt.Sprintf("interrupts: %d delivered of %d", delivered, len(recs))
	if delivered == 0 {
		return line
	}
	return fmt.Sprintf("%s; mean delivery latency %.0f cycles; %.2f reinjections/intr",
		line, lat/float64(delivered), reinj/float64(delivered))
}
