package experiments

import (
	"fmt"

	"xui/internal/core"
	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/kernel"
	"xui/internal/kvstore"
	"xui/internal/loadgen"
	"xui/internal/sim"
	"xui/internal/urt"
)

// CluiStuiResult quantifies §4.1's alternative to hardware safepoints:
// bracketing every allocator critical section with clui/stui. The paper
// measured a 7 % RocksDB throughput penalty from protecting malloc() this
// way.
type CluiStuiResult struct {
	MallocsPerGet   int
	PairCost        float64 // clui+stui cycles per protected section
	AnalyticPenalty float64 // added cycles / GET service time
	MeasuredPenalty float64 // achieved-throughput drop in the runtime model
}

// CluiStuiCriticalSection runs the RocksDB workload at overload twice —
// once with GET service times inflated by mallocsPerGet clui/stui pairs —
// and reports the throughput penalty.
func (e *Env) CluiStuiCriticalSection(mallocsPerGet int, horizon sim.Time) CluiStuiResult {
	pair := float64(core.CluiCost + core.StuiCost)
	costs := kvstore.DefaultCostModel()
	res := CluiStuiResult{
		MallocsPerGet:   mallocsPerGet,
		PairCost:        pair,
		AnalyticPenalty: 100 * pair * float64(mallocsPerGet) / float64(costs.GetMean),
	}
	thr := runGrid(e, "cluistui", []int{0, mallocsPerGet}, func(_ int, m int) float64 {
		return e.cluiStuiThroughput(m, horizon)
	})
	base, prot := thr[0], thr[1]
	if base > 0 {
		res.MeasuredPenalty = 100 * (base - prot) / base
	}
	return res
}

// cluiStuiThroughput measures GET throughput at saturation with the given
// per-GET clui/stui tax. The workload is GET-only: under preemptive
// scheduling at overload, completed-request throughput is dominated by
// GETs anyway (short requests bypass queued SCANs), so the clean capacity
// measurement uses the homogeneous stream.
func (e *Env) cluiStuiThroughput(mallocsPerGet int, horizon sim.Time) float64 {
	s := sim.New(4321)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	k := kernel.New(m)
	rt, err := urt.New(m, k, urt.Config{Workers: 1, Preempt: urt.KBTimer, Quantum: fig7Quantum})
	if err != nil {
		panic(err)
	}
	costs := kvstore.DefaultCostModel()
	rng := sim.NewRNG(9)
	tax := sim.Time(mallocsPerGet) * sim.Time(core.CluiCost+core.StuiCost)
	gen, err := loadgen.StartOpenLoop(s, 5, 1_200_000, func(now sim.Time, _ uint64) {
		rt.Spawn(0, "GET", costs.SampleGet(rng)+tax, nil)
	})
	if err != nil {
		panic(err)
	}
	s.RunUntil(horizon)
	e.snapshotMachine(m)
	gen.Stop()
	return float64(rt.Completed) / horizon.Seconds()
}

// SafepointDensityRow is one point of the safepoint-density ablation: how
// instrumentation density trades steady-state overhead against delivery
// delay (the compiler's knob in §4.4).
type SafepointDensityRow struct {
	Every        int     // one safepoint per N instructions
	OverheadPct  float64 // slowdown with 5 µs preemption
	MeanDelayCyc float64 // arrival → injection wait
}

// SafepointDensity sweeps safepoint spacing on matmul at a 5 µs quantum.
// Hardware safepoints are free when idle, so overhead stays flat while
// delivery delay grows linearly with spacing — the "near zero cost"
// claim, quantified.
func (e *Env) SafepointDensity(spacings []int, uops uint64) []SafepointDensityRow {
	const period = 10000
	// Strategy-independent memoized baseline: shared with PollDensity and
	// any fig5 run at the same budget.
	base := e.workloadBaseline("matmul", 1, uops, uops*400)

	return runGrid(e, "safepoint-density", spacings, func(_ int, every int) SafepointDensityRow {
		cfg := receiverCfg(cpu.Tracked)
		cfg.SafepointMode = true
		res := e.runReceiver(cfg, e.stream(streamSpec{workload: "matmul", seed: 1, safepoint: every}, uops),
			uops, uops*400,
			func(c *cpu.Core, _ *cpu.PrivatePort) {
				c.PeriodicInterrupts(period, period, func() cpu.Interrupt {
					return cpu.Interrupt{Vector: 1, SkipNotification: true, Handler: CtxSwitchHandler()}
				})
			})
		var delay float64
		n := 0
		for _, r := range res.Interrupts {
			if r.InjectStart == 0 {
				continue
			}
			delay += float64(r.InjectStart - r.Arrive)
			n++
		}
		if n > 0 {
			delay /= float64(n)
		}
		return SafepointDensityRow{
			Every:        every,
			OverheadPct:  100 * (float64(res.Cycles) - float64(base.Cycles)) / float64(base.Cycles),
			MeanDelayCyc: delay,
		}
	})
}

// PollDensityRow is one point of the polling-density ablation — the Go
// team's dilemma (§2): denser checks mean faster preemption but a larger
// steady-state tax.
type PollDensityRow struct {
	Every       int
	OverheadPct float64
}

// PollDensity sweeps Concord-style check spacing on matmul with no
// preemptions at all: the overhead is pure instrumentation tax.
func (e *Env) PollDensity(spacings []int, uops uint64) []PollDensityRow {
	base := e.workloadBaseline("matmul", 1, uops, uops*400)
	return runGrid(e, "poll-density", spacings, func(_ int, every int) PollDensityRow {
		total := uops + uops/uint64(every)*2
		res := e.baselineRun(fmt.Sprintf("matmul/1+poll%d", every),
			func() isa.Stream {
				return e.stream(streamSpec{workload: "matmul", seed: 1, poll: every}, uops)
			}, total, total*400)
		return PollDensityRow{
			Every:       every,
			OverheadPct: 100 * (float64(res.Cycles) - float64(base.Cycles)) / float64(base.Cycles),
		}
	})
}
