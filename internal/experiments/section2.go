package experiments

import (
	"math"

	"xui/internal/core"
)

// Section2Result collects the §2 motivation measurements: the costs of the
// existing user-level notification mechanisms, plus the tight-loop polling
// tax (the Wasmtime observation: up to ≈50 % slowdown on linpack-like
// code).
type Section2Result struct {
	SignalCycles       float64 // per delivered signal (paper: ≈4800 = 2.4 µs)
	SignalKernelCycles float64 // context-switch share (paper: ≈2800)
	UIPIReceiverCycles float64 // paper: ≈600–900 on Sapphire Rapids
	PollNegativeCycles float64 // one negative check (paper: ≈"quite cheap")
	PollPositiveCycles float64 // one notification via polling (paper: ≈100)
	TightLoopPollPct   float64 // instrumentation slowdown on a tight loop
	LoopPollGeomeanPct float64 // Go-style loop checks across microbenches
}

// Section2 measures each quantity on the models.
func (e *Env) Section2() Section2Result {
	var r Section2Result
	r.SignalCycles = core.SignalCost
	r.SignalKernelCycles = core.SignalKernelCost

	t2 := e.Table2()
	r.UIPIReceiverCycles = t2.ReceiverCost

	neg, pos := e.PollingCosts()
	r.PollNegativeCycles = neg
	r.PollPositiveCycles = pos

	// Wasmtime-style preemption checks in a tight loop: a check at every
	// back-edge of a ~4-instruction loop.
	r.TightLoopPollPct = e.pollSlowdown("linpack", 3, 150000)

	// Go-proposal-style loop instrumentation across the microbenches
	// (geometric mean; the proposal measured ≈7 %).
	prod := 1.0
	n := 0
	for _, w := range []string{"fib", "linpack", "memops", "matmul", "base64"} {
		s := e.pollSlowdown(w, 40, 120000)
		prod *= 1 + s/100
		n++
	}
	r.LoopPollGeomeanPct = 100 * (math.Pow(prod, 1/float64(n)) - 1)
	return r
}

func (e *Env) pollSlowdown(workload string, checkEvery int, uops uint64) float64 {
	rb := e.workloadBaseline(workload, 1, uops, uops*400)
	ri := e.pollBaseline(workload, 1, checkEvery, uops)
	return 100 * (float64(ri.Cycles) - float64(rb.Cycles)) / float64(rb.Cycles)
}
