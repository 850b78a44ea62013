package experiments

import (
	"xui/internal/core"
	"xui/internal/cpu"
	"xui/internal/isa"
)

// Fig5Row is one point of Figure 5: preemption overhead for a workload at
// a given quantum under one mechanism.
type Fig5Row struct {
	Workload    string
	Method      string
	QuantumUs   float64
	OverheadPct float64
}

// Fig5Workloads are the paper's two programs.
var Fig5Workloads = []string{"matmul", "base64"}

// Fig5Methods are the three preemption mechanisms compared.
var Fig5Methods = []string{"polling", "uipi", "xui-safepoint"}

// Concord-style instrumentation density: a check at every loop back-edge /
// function entry, roughly one per 25 instructions in loop-heavy code.
const pollCheckEvery = 25

// Safepoint density matches the instrumentation points (safepoints replace
// checks 1:1 in the modified Concord pass, §6.1).
const safepointEvery = 25

// CtxSwitchHandler models the user-level scheduler's preemption handler:
// save callee state, switch stacks, pick next thread — ≈ the 200-cycle
// user context switch.
func CtxSwitchHandler() []isa.MicroOp {
	var ops []isa.MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops,
			isa.MicroOp{Class: isa.Store, Addr: 0xA000 + uint64(i)*8, BoundaryStart: true},
			isa.MicroOp{Class: isa.IntAlu, Lat: 8, Dep1: 1, BoundaryStart: true},
		)
	}
	ops = append(ops, isa.MicroOp{Class: isa.IntAlu, Lat: 30, Dep1: 1, WritesSP: true, ReadsSP: true, BoundaryStart: true})
	return ops
}

// Fig5 sweeps preemption quantum for each workload and method, returning
// the slowdown relative to an unpreempted, uninstrumented run. Paper
// anchors at a 5 µs quantum: safepoints 1.2–1.5 %, UIPI in between,
// polling 8.5–11 %.
func (e *Env) Fig5(quantaUs []float64, uopsPerRun uint64) []Fig5Row {
	// Phase 1: the per-workload uninstrumented baselines (memoized; fig4
	// and section2 runs at the same budget share them).
	bases := runGrid(e, "fig5/base", Fig5Workloads, func(_ int, w string) uint64 {
		return e.workloadBaseline(w, 1, uopsPerRun, uopsPerRun*400).Cycles
	})
	// Phase 2: the (workload, quantum, method) grid against those baselines.
	type job struct {
		w      string
		base   uint64
		q      float64
		method string
	}
	var jobs []job
	for wi, w := range Fig5Workloads {
		for _, q := range quantaUs {
			for _, method := range Fig5Methods {
				jobs = append(jobs, job{w, bases[wi], q, method})
			}
		}
	}
	return runGrid(e, "fig5", jobs, func(_ int, j job) Fig5Row {
		period := uint64(j.q * 2000)
		cycles := e.fig5Run(j.w, j.method, period, j.base, uopsPerRun)
		over := 100 * (cycles - float64(j.base)) / float64(j.base)
		return Fig5Row{Workload: j.w, Method: j.method, QuantumUs: j.q, OverheadPct: over}
	})
}

// fig5Run returns the cycles of one method's run; base is the
// workload's uninstrumented baseline at the same budget.
func (e *Env) fig5Run(workload, method string, period, base, uops uint64) float64 {
	if method != "polling" && period > base && !e.NoCache {
		// The first preemption would arrive after the uninstrumented run
		// has ended, so none lands and the run is that baseline cycle for
		// cycle: an interrupt-free run ignores the strategy, safepoint
		// mode and prefix (TestBaselineStrategyInvariance). The uncached
		// path simulates it, and TestRunCacheParity compares the two.
		return float64(base)
	}
	switch method {
	case "polling":
		// Concord instrumentation: the poll checks execute regardless of
		// preemption rate; each positive check (one per quantum) costs a
		// cross-core line transfer, a mispredicted branch, and the user
		// context switch. The simulated run is interrupt-free and therefore
		// quantum-independent — pollBaseline memoizes it, so all quanta of
		// a workload share one simulation.
		res := e.pollBaseline(workload, 1, pollCheckEvery, uops)
		positives := float64(res.Cycles) / float64(period)
		posCost := float64(core.PollingNotifyCost+core.UserContextSwitch) + float64(cpu.DefaultConfig().FrontEndDepth)
		return float64(res.Cycles) + positives*posCost
	case "uipi":
		res := e.runReceiver(receiverCfg(cpu.Flush), e.workloadStream(workload, 1, uops),
			uops, uops*400,
			func(c *cpu.Core, port *cpu.PrivatePort) {
				c.PeriodicInterrupts(period, period, func() cpu.Interrupt {
					port.MarkRemoteWrite(UPIDAddr)
					return cpu.Interrupt{Vector: 1, Handler: CtxSwitchHandler()}
				})
			})
		return float64(res.Cycles)
	case "xui-safepoint":
		return float64(e.safepointRun(workload, safepointEvery, period, uops).Cycles)
	}
	panic("experiments: unknown fig5 method " + method)
}
