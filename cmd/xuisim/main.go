// Command xuisim runs one end-to-end Tier-2 scenario with adjustable
// parameters — the interactive companion to xuibench's fixed sweeps.
//
// Scenarios:
//
//	rocksdb  — Aspen runtime serving the bimodal GET/SCAN mix
//	l3fwd    — layer-3 forwarding from N NICs
//	dsa      — closed-loop accelerator offload
//	timer    — dedicated timer-core utilization
package main

import (
	"flag"
	"fmt"
	"os"

	"xui/internal/experiments"
	"xui/internal/report"
	"xui/internal/sim"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	scenario := flag.String("scenario", "rocksdb", "rocksdb | l3fwd | dsa | timer | scale")
	ms := flag.Uint64("ms", 100, "simulated horizon in milliseconds")
	load := flag.Float64("load", 150000, "rocksdb, scale: offered rps (scale: per group); l3fwd: % of core capacity")
	nics := flag.Int("nics", 1, "l3fwd: NIC/queue count")
	noise := flag.Float64("noise", 20, "dsa: noise magnitude in % of base latency")
	cores := flag.Int("cores", 8, "timer: application cores to preempt; scale: cores per group")
	groups := flag.Int("groups", 16, "scale: shard-local core groups (one event kernel each)")
	period := flag.Float64("period", 5, "timer: preemption period in µs")
	sess := report.Flags(flag.CommandLine, "xuisim")
	flag.Parse()
	if err := sess.Start(); err != nil {
		fatal(err)
	}

	horizon := sim.Time(*ms) * sim.Millisecond
	env := sess.Env()
	var payload any
	switch *scenario {
	case "rocksdb":
		rows := env.Fig7([]float64{*load}, horizon)
		fmt.Printf("%-14s %10s %10s %11s %10s\n", "config", "achieved", "GET p99", "GET p99.9", "SCAN p99")
		for _, r := range rows {
			fmt.Printf("%-14s %10.0f %8.1fµs %9.1fµs %8.0fµs\n",
				r.Config, r.AchievedRPS, r.GetP99Us, r.GetP999Us, r.ScanP99Us)
		}
		payload = rows
	case "l3fwd":
		rows := env.Fig8([]int{*nics}, []float64{*load}, horizon)
		for _, r := range rows {
			fmt.Printf("%-5s net=%5.1f%% poll=%5.1f%% notify=%4.1f%% free=%5.1f%% tput=%.0fpps p95=%.2fµs drops=%d\n",
				r.Mode, r.NetPct, r.PollPct, r.NotifyPct, r.FreePct, r.ThroughputPPS, r.P95Us, r.Dropped)
		}
		payload = rows
	case "dsa":
		rows := env.Fig9([]float64{*noise}, 2000)
		for _, r := range rows {
			fmt.Printf("%-5s %-14s free=%5.1f%% notify=%7.3fµs request=%6.2fµs\n",
				r.Class, r.Method, r.FreePct, r.NotifyUs, r.RequestUs)
		}
		payload = rows
	case "timer":
		rows := env.Fig6([]float64{*period}, []int{*cores}, horizon)
		for _, r := range rows {
			fmt.Printf("%-12s util=%5.1f%% late=%d\n", r.Method, 100*r.TimerUtil, r.TicksLate)
		}
		spin := experiments.Fig6SpinCapacity(*period)
		fmt.Printf("rdtsc-spin capacity at %gµs: %d cores\n", *period, spin)
		payload = map[string]any{"rows": rows, "spinCapacity": spin}
	case "scale":
		cfg := experiments.ScaleConfig{
			Mode:          "cluster",
			Groups:        *groups,
			CoresPerGroup: *cores,
			PerGroupRPS:   *load,
			Horizon:       horizon,
		}
		r := env.ScalePoint(cfg)
		fmt.Printf("%d groups × %d cores: spawned=%d completed=%d GET p99=%.1fµs crossMsgs=%d epochs=%d agg=%d rebalances=%d\n",
			r.Groups, r.CoresPerGroup, r.Spawned, r.Completed, r.GetP99Us, r.CrossMsgs, r.Epochs, r.AggRecv, r.Rebalances)
		payload = r
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}
	if err := sess.Finish(*scenario, false, map[string]any{*scenario: payload}); err != nil {
		fatal(err)
	}
}
