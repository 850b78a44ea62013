// Package xui's top-level benchmark harness: one testing.B benchmark per
// table and figure in the paper's evaluation, plus ablation benches for
// the design choices DESIGN.md calls out. Each benchmark reports the
// figure's headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's result set. Absolute numbers come from the
// simulation models (see EXPERIMENTS.md for simulated-vs-paper tables);
// ns/op measures host-side simulation cost only.
package xui_test

import (
	"io"
	"testing"

	"xui/internal/check"
	"xui/internal/core"
	"xui/internal/cpu"
	"xui/internal/experiments"
	"xui/internal/kernel"
	"xui/internal/obs"
	"xui/internal/sim"
	"xui/internal/trace"
	"xui/internal/uintr"
)

// env is the default run environment the benchmarks run on.
var env = &experiments.Env{}

// BenchmarkTable2UIPIMetrics regenerates Table 2.
func BenchmarkTable2UIPIMetrics(b *testing.B) {
	var r experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = env.Table2()
	}
	b.ReportMetric(r.EndToEnd, "endToEnd-cy")
	b.ReportMetric(r.ReceiverCost, "receiver-cy")
	b.ReportMetric(r.Senduipi, "senduipi-cy")
}

// BenchmarkFig2Timeline regenerates the Figure 2 latency timeline.
func BenchmarkFig2Timeline(b *testing.B) {
	var r experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = env.Fig2()
	}
	b.ReportMetric(r.Arrive, "arrive-cy")
	b.ReportMetric(r.FirstNotif, "firstNotif-cy")
	b.ReportMetric(r.DeliveryDone, "deliveryDone-cy")
	b.ReportMetric(r.UiretCost, "uiret-cy")
}

// BenchmarkFig4ReceiverOverhead regenerates Figure 4 (per-event receiver
// costs for the three configurations, averaged over fib/linpack/memops).
func BenchmarkFig4ReceiverOverhead(b *testing.B) {
	var avg map[string]float64
	for i := 0; i < b.N; i++ {
		avg = experiments.Fig4Summary(env.Fig4(200000))
	}
	b.ReportMetric(avg["UIPI SW Timer"], "uipi-cy/event")
	b.ReportMetric(avg["xUI (SW Timer + Tracking)"], "tracked-cy/event")
	b.ReportMetric(avg["xUI (KB_Timer + Tracking)"], "kbtimer-cy/event")
}

// BenchmarkFig5Safepoints regenerates Figure 5's 5 µs anchor (preemption
// overhead by mechanism, matmul).
func BenchmarkFig5Safepoints(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = env.Fig5([]float64{5}, 150000)
	}
	for _, r := range rows {
		if r.Workload != "matmul" {
			continue
		}
		switch r.Method {
		case "polling":
			b.ReportMetric(r.OverheadPct, "polling-%")
		case "uipi":
			b.ReportMetric(r.OverheadPct, "uipi-%")
		case "xui-safepoint":
			b.ReportMetric(r.OverheadPct, "safepoint-%")
		}
	}
}

// BenchmarkFig6TimerCost regenerates Figure 6's 5 µs / 22-core point.
func BenchmarkFig6TimerCost(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = env.Fig6([]float64{5}, []int{22}, 20*sim.Millisecond)
	}
	for _, r := range rows {
		switch r.Method {
		case "setitimer":
			b.ReportMetric(100*r.TimerUtil, "setitimer-util%")
		case "nanosleep":
			b.ReportMetric(100*r.TimerUtil, "nanosleep-util%")
		case "rdtsc-spin":
			b.ReportMetric(100*r.TimerUtil, "spin-send-util%")
		}
	}
	b.ReportMetric(float64(experiments.Fig6SpinCapacity(5)), "spin-capacity-cores")
}

// BenchmarkFig7RocksDB regenerates Figure 7's near-saturation comparison.
func BenchmarkFig7RocksDB(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		rows = env.Fig7([]float64{215_000}, 100*sim.Millisecond)
	}
	for _, r := range rows {
		switch r.Config {
		case "uipi-sw-timer":
			b.ReportMetric(r.GetP99Us, "uipi-getP99-µs")
		case "xui-kbtimer":
			b.ReportMetric(r.GetP99Us, "xui-getP99-µs")
		case "no-preempt":
			b.ReportMetric(r.GetP99Us, "nopreempt-getP99-µs")
		}
	}
}

// BenchmarkFig8L3Fwd regenerates Figure 8's headline point (1 queue, 40 %
// load).
func BenchmarkFig8L3Fwd(b *testing.B) {
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = env.Fig8([]int{1}, []float64{40}, 15*sim.Millisecond)
	}
	for _, r := range rows {
		if r.Mode == "xui" {
			b.ReportMetric(r.FreePct, "xui-free-%")
			b.ReportMetric(r.P95Us, "xui-p95-µs")
		} else {
			b.ReportMetric(r.FreePct, "poll-free-%")
			b.ReportMetric(r.P95Us, "poll-p95-µs")
		}
	}
}

// BenchmarkFig9DSA regenerates Figure 9's 2 µs / 20 %-noise point.
func BenchmarkFig9DSA(b *testing.B) {
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = env.Fig9([]float64{20}, 500)
	}
	for _, r := range rows {
		if r.Class != "2us" {
			continue
		}
		switch r.Method {
		case "xui":
			b.ReportMetric(r.FreePct, "xui-free-%")
			b.ReportMetric(r.NotifyUs*1000, "xui-notify-ns")
		case "busy-spin":
			b.ReportMetric(r.NotifyUs*1000, "spin-notify-ns")
		}
	}
}

// BenchmarkWorstCaseLatency regenerates the §6.1 pathological case.
func BenchmarkWorstCaseLatency(b *testing.B) {
	var rows []experiments.WorstCaseRow
	for i := 0; i < b.N; i++ {
		rows = env.WorstCase([]int{50})
	}
	b.ReportMetric(float64(rows[0].TrackedCycles), "tracked-cy")
	b.ReportMetric(float64(rows[0].FlushCycles), "flush-cy")
}

// BenchmarkSection2Costs regenerates the §2 mechanism-cost table.
func BenchmarkSection2Costs(b *testing.B) {
	var r experiments.Section2Result
	for i := 0; i < b.N; i++ {
		r = env.Section2()
	}
	b.ReportMetric(r.UIPIReceiverCycles, "uipi-cy")
	b.ReportMetric(r.PollPositiveCycles, "pollPositive-cy")
	b.ReportMetric(r.TightLoopPollPct, "tightLoopTax-%")
}

// BenchmarkAblationStrategies isolates the delivery-strategy choice
// (flush vs. drain vs. tracked) on one workload with the full UPID path —
// the paper's central design ablation.
func BenchmarkAblationStrategies(b *testing.B) {
	for _, s := range []cpu.Strategy{cpu.Flush, cpu.Drain, cpu.Tracked} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				per = env.ReceiverEventCost(s, "linpack", false, 10000, 200000)
			}
			b.ReportMetric(per, "cy/event")
		})
	}
}

// obsBenchRun is the fixed pipeline workload the observability-overhead
// pair below shares: a flush-strategy receiver on linpack taking periodic
// full-path interrupts, built on e.
func obsBenchRun(e *experiments.Env) {
	c, port := e.NewReceiver(cpu.Flush, trace.ByName("linpack", 1))
	c.PeriodicInterrupts(5000, 5000, func() cpu.Interrupt {
		port.MarkRemoteWrite(experiments.UPIDAddr)
		return cpu.Interrupt{Vector: 1, Handler: experiments.TinyHandler()}
	})
	c.Run(60000, 60000*400)
}

// BenchmarkObsDisabled measures the pipeline with observability off — the
// default nil-observer fast path. Compare against BenchmarkObsEnabled: the
// hook guards must cost well under 2% of host time.
func BenchmarkObsDisabled(b *testing.B) {
	e := &experiments.Env{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsBenchRun(e)
	}
}

// BenchmarkObsEnabled measures the same run with a registry and a tracer
// streaming to io.Discard attached, bounding the cost of full tracing,
// event encoding included.
func BenchmarkObsEnabled(b *testing.B) {
	e := &experiments.Env{Obs: &obs.Context{Trace: obs.NewStreamTracer(io.Discard), Metrics: obs.NewRegistry()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obsBenchRun(e)
	}
}

// BenchmarkAblationReinject quantifies the tracked re-injection state
// machine: with it, interrupts survive mispredict squashes; the metric is
// re-injections per delivered interrupt on a branchy workload.
func BenchmarkAblationReinject(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		core, port := env.NewReceiver(cpu.Tracked, experiments.SlowBranchStream(40000))
		_ = port
		for j := uint64(1); j <= 40; j++ {
			core.ScheduleInterrupt(j*2000, cpu.Interrupt{
				Vector: 1, SkipNotification: true, Handler: experiments.TinyHandler(),
			})
		}
		res := core.Run(80000, 20_000_000)
		reinj, n := 0, 0
		for _, r := range res.Interrupts {
			if r.UiretDone != 0 {
				reinj += r.Reinjections
				n++
			}
		}
		if n > 0 {
			rate = float64(reinj) / float64(n)
		}
	}
	b.ReportMetric(rate, "reinjections/intr")
}

// checkBenchRun is the fixed workload the invariant-checking overhead pair
// shares: the obsBenchRun pipeline plus a Tier-2 UIPI delivery loop, so
// both tiers' check hooks are on the measured path when e checks.
func checkBenchRun(e *experiments.Env) {
	obsBenchRun(e)
	s := sim.New(1)
	m, err := core.NewMachine(s, 2, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	if e.Check != nil {
		check.Attach(e.Check, m, "bench")
	}
	k := kernel.New(m)
	recv := k.NewThread()
	k.RegisterHandler(recv, func(sim.Time, uintr.Vector, core.Mechanism) {})
	k.ScheduleOn(recv, 1)
	idx, err := k.RegisterSender(recv, 3)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 2000; i++ {
		s.After(sim.Time(i)*2000, func(sim.Time) {
			if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
				panic(err)
			}
		})
	}
	s.Run()
}

// BenchmarkCheckDisabled measures both tiers with invariant checking off —
// the default nil-probe fast path. Compare against BenchmarkCheckEnabled:
// the nil guards must cost well under 2% of host time, and the delivery
// hot path stays allocation-free (TestCheckDisabledDeliveryAllocFree).
func BenchmarkCheckDisabled(b *testing.B) {
	e := &experiments.Env{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkBenchRun(e)
	}
}

// BenchmarkCheckEnabled measures the same runs with a live collector
// attached, bounding the cost of always-on checking.
func BenchmarkCheckEnabled(b *testing.B) {
	e := &experiments.Env{Check: check.NewCollector()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkBenchRun(e)
	}
}

// TestCheckDisabledDeliveryAllocFree pins the zero-cost contract: the
// delivery hot path's own event closures aside, disabled checking adds
// zero allocations — a machine that had a checker attached and detached
// allocates exactly what a never-checked machine does per UIPI round trip.
func TestCheckDisabledDeliveryAllocFree(t *testing.T) {
	measure := func(detached bool) float64 {
		s := sim.New(1)
		m, err := core.NewMachine(s, 2, core.TrackedIPI)
		if err != nil {
			t.Fatal(err)
		}
		if detached {
			check.Attach(check.NewCollector(), m, "alloc")
			m.SetCheck(nil)
		}
		k := kernel.New(m)
		recv := k.NewThread()
		k.RegisterHandler(recv, func(sim.Time, uintr.Vector, core.Mechanism) {})
		k.ScheduleOn(recv, 1)
		idx, err := k.RegisterSender(recv, 3)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip := func() {
			if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
				t.Fatal(err)
			}
			s.Run()
		}
		roundTrip() // warm the event pool
		return testing.AllocsPerRun(200, roundTrip)
	}
	base := measure(false)
	detached := measure(true)
	if detached != base {
		t.Errorf("checked-then-detached delivery path allocates %v/op, never-checked %v/op; disabled checking must add 0", detached, base)
	}
}
