package experiments

import (
	"fmt"
	"io"
	"strings"

	"xui/internal/stats"
)

// Text renderers for the job registry: each prints one experiment's
// payload as the tables xuibench shows, with the paper's values alongside
// where applicable. They only format; every number comes from the payload
// or from a closed-form model constant.

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func textTable2(w io.Writer, p versus[Table2Result]) {
	header(w, "Table 2 — Key performance metrics of UIPIs (cycles)")
	got, paper := p.Simulated, p.Paper
	fmt.Fprintf(w, "%-16s %10s %10s\n", "metric", "simulated", "paper")
	row := func(n string, g, p float64) { fmt.Fprintf(w, "%-16s %10.0f %10.0f\n", n, g, p) }
	row("end-to-end", got.EndToEnd, paper.EndToEnd)
	row("receiver cost", got.ReceiverCost, paper.ReceiverCost)
	row("senduipi", got.Senduipi, paper.Senduipi)
	row("clui", got.Clui, paper.Clui)
	row("stui", got.Stui, paper.Stui)
	fmt.Fprintf(w, "\ndelivery distributions (cycles, from the instrumented stock-UIPI run):\n")
	dist := func(n string, s stats.Summary) {
		fmt.Fprintf(w, "%-16s p50=%-6d p99=%-6d p99.9=%-6d max=%d\n", n, s.P50, s.P99, s.P999, s.Max)
	}
	dist("arrive→delivery", got.Delivery.Delivery)
	dist("handler", got.Delivery.Handler)
	dist("arrive→commit", got.Delivery.NotifToCommit)
	dist("arrive→uiret", got.Delivery.EndToEnd)
}

func textFig2(w io.Writer, p versus[Fig2Result]) {
	header(w, "Figure 2 — UIPI latency timeline (cycles from senduipi start)")
	got, paper := p.Simulated, p.Paper
	fmt.Fprintf(w, "%-28s %10s %10s\n", "event", "simulated", "paper")
	row := func(n string, g, p float64) { fmt.Fprintf(w, "%-28s %10.0f %10.0f\n", n, g, p) }
	row("interrupt arrives", got.Arrive, paper.Arrive)
	row("first notification event", got.FirstNotif, paper.FirstNotif)
	row("notification+delivery done", got.DeliveryDone, paper.DeliveryDone)
	fmt.Fprintf(w, "%-28s %10.0f %10s\n", "handler starts", got.HandlerStart, "-")
	row("uiret", got.UiretCost, paper.UiretCost)
}

func textFig4(w io.Writer, p fig4Payload) {
	header(w, "Figure 4 — Receiver overhead, periodic 5 µs interrupts")
	fmt.Fprintf(w, "%-9s %-27s %12s %10s\n", "workload", "config", "cycles/event", "overhead")
	for _, r := range p.Rows {
		fmt.Fprintf(w, "%-9s %-27s %12.0f %9.2f%%\n", r.Workload, r.Config, r.PerEvent, r.OverheadPct)
	}
	avg := p.Averages
	fmt.Fprintf(w, "\naverages: UIPI=%.0f tracked=%.0f kb_timer=%.0f (paper: 645 / 231 / 105)\n",
		avg["UIPI SW Timer"], avg["xUI (SW Timer + Tracking)"], avg["xUI (KB_Timer + Tracking)"])
}

func textFig5(w io.Writer, rows []Fig5Row) {
	header(w, "Figure 5 — Preemption overhead vs. quantum (matmul, base64)")
	fmt.Fprintf(w, "%-9s %-14s %10s %10s\n", "workload", "method", "quantum", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-14s %8gµs %9.2f%%\n", r.Workload, r.Method, r.QuantumUs, r.OverheadPct)
	}
	fmt.Fprintln(w, "\npaper anchors at 5 µs: safepoints 1.2-1.5 %, polling 8.5-11 %, UIPI between")
}

func textFig6(w io.Writer, rows []Fig6Row) {
	header(w, "Figure 6 — The cost of a timer core")
	fmt.Fprintf(w, "%-12s %9s %6s %10s %6s\n", "method", "period", "cores", "timer-util", "late")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7gµs %6d %9.1f%% %6d\n", r.Method, r.PeriodUs, r.AppCores, 100*r.TimerUtil, r.TicksLate)
	}
	fmt.Fprintf(w, "\nrdtsc-spin capacity at 5 µs: %d app cores (paper: 22)\n", Fig6SpinCapacity(5))
}

func textFig7(w io.Writer, rows []Fig7Row) {
	header(w, "Figure 7 — RocksDB on Aspen: tail latency vs. offered load")
	fmt.Fprintf(w, "%-14s %10s %10s %10s %11s %10s %18s\n",
		"config", "offered", "achieved", "GET p99", "GET p99.9", "SCAN p99", "deliv p50/p99/p99.9")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10.0f %10.0f %8.1fµs %9.1fµs %8.0fµs %6d/%d/%dcy\n",
			r.Config, r.OfferedRPS, r.AchievedRPS, r.GetP99Us, r.GetP999Us, r.ScanP99Us,
			r.DelivP50Cy, r.DelivP99Cy, r.DelivP999Cy)
	}
	capacity := Fig7Capacity(rows, 300)
	fmt.Fprintf(w, "\ncapacity at 300 µs GET-p99 SLO: uipi=%.0f xui=%.0f (+%.1f%%; paper: +10%%)\n",
		capacity["uipi-sw-timer"], capacity["xui-kbtimer"],
		100*(capacity["xui-kbtimer"]/capacity["uipi-sw-timer"]-1))
}

func textFig8(w io.Writer, rows []Fig8Row) {
	header(w, "Figure 8 — l3fwd efficiency: polling vs. xUI device interrupts")
	fmt.Fprintf(w, "%-5s %5s %6s %7s %7s %7s %7s %12s %9s %6s %16s\n",
		"mode", "nics", "load", "net", "poll", "notify", "free", "pps", "p95", "drops", "deliv p50/p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %5d %5.0f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %12.0f %7.2fµs %6d %10d/%dcy\n",
			r.Mode, r.NICs, r.LoadPct, r.NetPct, r.PollPct, r.NotifyPct, r.FreePct,
			r.ThroughputPPS, r.P95Us, r.Dropped, r.DelivP50Cy, r.DelivP99Cy)
	}
	fmt.Fprintln(w, "\npaper anchors: polling free=0 always; xUI ≈45% free at 40% load/1 queue; throughput parity")
}

func textFig9(w io.Writer, rows []Fig9Row) {
	header(w, "Figure 9 — DSA response delivery: free cycles and latency")
	fmt.Fprintf(w, "%-5s %-14s %6s %7s %10s %10s\n", "class", "method", "noise", "free", "notify", "request")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %-14s %5.0f%% %6.1f%% %8.3fµs %8.2fµs\n",
			r.Class, r.Method, r.NoisePct, r.FreePct, r.NotifyUs, r.RequestUs)
	}
	fmt.Fprintln(w, "\npaper anchors: xUI within 0.2 µs of spinning; ≈75% free cycles for 2 µs class")
}

func textWorstCase(w io.Writer, rows []WorstCaseRow) {
	header(w, "§6.1 — Maximum interrupt latency (SP-dependent load chain)")
	fmt.Fprintf(w, "%-10s %12s %12s %16s %14s\n", "chain", "tracked", "flush", "tracked p50/p99", "flush p50/p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %12d %12d %10d/%dcy %8d/%dcy\n",
			r.ChainLen, r.TrackedCycles, r.FlushCycles,
			r.TrackedDist.P50, r.TrackedDist.P99, r.FlushDist.P50, r.FlushDist.P99)
	}
	fmt.Fprintln(w, "\npaper: ≈7000 cycles worst case for tracking at 50+ loads, ≈10x the flush latency")
}

func textSection2(w io.Writer, r Section2Result) {
	header(w, "§2 — Costs of existing user-level notification mechanisms")
	fmt.Fprintf(w, "signal delivery:        %6.0f cycles (paper ≈4800 = 2.4 µs)\n", r.SignalCycles)
	fmt.Fprintf(w, "  of which kernel:      %6.0f cycles (paper ≈2800)\n", r.SignalKernelCycles)
	fmt.Fprintf(w, "UIPI receiver:          %6.0f cycles (paper 600-900)\n", r.UIPIReceiverCycles)
	fmt.Fprintf(w, "negative poll:          %6.2f cycles (≈free)\n", r.PollNegativeCycles)
	fmt.Fprintf(w, "positive poll:          %6.0f cycles (paper ≈100)\n", r.PollPositiveCycles)
	fmt.Fprintf(w, "tight-loop poll tax:    %6.1f %% (paper: up to ≈50%% on linpack2)\n", r.TightLoopPollPct)
	fmt.Fprintf(w, "loop-check geomean:     %6.1f %% (Go proposal measured ≈7%%)\n", r.LoopPollGeomeanPct)
}

func textSection35(w io.Writer, p section35Payload) {
	header(w, "§3.5 — Deconstructing the microarchitecture (strategy detectors)")
	fmt.Fprintln(w, "pointer-chase detector: delivery latency vs. receiver working set")
	fmt.Fprintf(w, "%12s %12s %12s\n", "working set", "flush", "drain")
	for _, r := range p.PointerChase {
		fmt.Fprintf(w, "%10dKB %10.0fcy %10.0fcy\n", r.WorkingSetKB, r.FlushCycles, r.DrainCycles)
	}
	lin := p.Linearity
	fmt.Fprintf(w, "\nflush-linearity detector: squashed uops vs. interrupt count\n")
	for i, k := range lin.Interrupts {
		fmt.Fprintf(w, "  %3d interrupts -> %6d squashed uops\n", k, lin.Squashed[i])
	}
	fmt.Fprintf(w, "  slope %.0f uops/interrupt, correlation r=%.4f\n", lin.PerIntr, lin.Correlation)
	fmt.Fprintln(w, "\npaper: latency independent of in-flight work + exactly-linear flushed uops => flush strategy")
}

func textAblations(w io.Writer, p ablationsPayload) {
	header(w, "Ablations — design-choice studies beyond the paper's figures")
	cs := p.CluiStui
	fmt.Fprintf(w, "clui/stui critical sections (%d per GET, %g cy/pair):\n", cs.MallocsPerGet, cs.PairCost)
	fmt.Fprintf(w, "  analytic penalty %.1f%%, measured %.1f%% (paper: 7%% for malloc in RocksDB)\n",
		cs.AnalyticPenalty, cs.MeasuredPenalty)
	fmt.Fprintln(w, "\nsafepoint density (matmul, 5 µs quantum):")
	for _, r := range p.SafepointDensity {
		fmt.Fprintf(w, "  every %4d ops: overhead %5.2f%%  delivery delay %6.0f cy\n",
			r.Every, r.OverheadPct, r.MeanDelayCyc)
	}
	fmt.Fprintln(w, "\npolling-check density (matmul, no preemptions — pure tax):")
	for _, r := range p.PollDensity {
		fmt.Fprintf(w, "  every %4d ops: overhead %5.2f%%\n", r.Every, r.OverheadPct)
	}
}

func textMultiWorker(w io.Writer, rows []MultiWorkerRow) {
	header(w, "Multi-worker scaling — Aspen work stealing under xUI preemption")
	fmt.Fprintf(w, "%7s %6s %10s %10s %9s %10s\n",
		"workers", "steal", "offered", "achieved", "GET p99", "imbalance")
	for _, r := range rows {
		imb := "-"
		if r.Imbalance > 0 {
			imb = fmt.Sprintf("%.2f", r.Imbalance)
		}
		fmt.Fprintf(w, "%7d %6v %10.0f %10.0f %7.1fµs %10s\n",
			r.Workers, r.Steal, r.OfferedRPS, r.AchievedRPS, r.GetP99Us, imb)
	}
	fmt.Fprintln(w, "\nall arrivals target worker 0; stealing spreads them across cores")
}

func textDuet(w io.Writer, r DuetResult) {
	header(w, "Duet — lockstep two-core co-simulation cross-check (no Table 2 shortcuts)")
	fmt.Fprintf(w, "sends=%d delivered=%d\n", r.Sends, r.Delivered)
	fmt.Fprintf(w, "mean arrival       %7.0f cycles (paper tight-loop: 380)\n", r.MeanArrival)
	fmt.Fprintf(w, "mean recv window   %7.0f cycles\n", r.MeanRecvWindow)
	fmt.Fprintf(w, "mean end-to-end    %7.0f cycles (paper tight-loop: ≈1100 incl. handler)\n", r.MeanEndToEnd)
	fmt.Fprintln(w, "\npaced round trips run cheaper than the tight loop: the sender's window")
	fmt.Fprintln(w, "drains between sends and the receiver's caches stay warm")
}

func textScale(w io.Writer, rows []ScaleRow) {
	header(w, "Scale — sharded Tier-2 engine: cluster and edge topologies")
	fmt.Fprintf(w, "%-8s %7s %6s %5s %10s %10s %9s %9s %8s %7s %6s\n",
		"mode", "groups", "c/grp", "cores", "spawned", "completed", "GET p99", "xmsgs", "epochs", "agg", "rebal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d %6d %5d %10d %10d %7.1fµs %9d %8d %7d %6d\n",
			r.Mode, r.Groups, r.CoresPerGroup, r.Cores, r.Spawned, r.Completed, r.GetP99Us,
			r.CrossMsgs, r.Epochs, r.AggRecv, r.Rebalances)
	}
	fmt.Fprintln(w, "\none goroutine drives every shard kernel; -report records the wall time")
}
