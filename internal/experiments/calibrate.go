// Package experiments implements one entry point per table and figure of
// the paper's evaluation. Each returns typed rows that cmd/xuibench
// prints, bench_test.go wraps, and the package's own tests assert against
// the paper's numbers.
package experiments

import (
	"fmt"

	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/mem"
	"xui/internal/uintr"
)

// Simulated addresses for the shared notification structures.
const (
	UPIDAddr  = 0xF000_0000
	UITTAddr  = 0xF100_0000
	StackAddr = 0xE000_0000
	FlagAddr  = 0xF200_0000 // polling preemption flag
)

// Ucode returns the calibrated microcode set for a receiver core.
func Ucode() cpu.UcodeSet {
	return cpu.UcodeSet{
		Notification: uintr.NotificationRoutine(UPIDAddr),
		Delivery:     uintr.DeliveryRoutine(StackAddr),
		Uiret:        uintr.UiretRoutine(StackAddr),
	}
}

// NewReceiver builds a receiver core with the given strategy over prog.
// The returned port lets the driver mark remote UPID writes.
func (e *Env) NewReceiver(strategy cpu.Strategy, prog isa.Stream) (*cpu.Core, *cpu.PrivatePort) {
	return e.NewReceiverConfig(receiverCfg(strategy), prog)
}

// NewReceiverConfig is NewReceiver with an explicit core configuration,
// for drivers that change more than the strategy (e.g. safepoint mode).
// The core runs on e's engine.
func (e *Env) NewReceiverConfig(cfg cpu.Config, prog isa.Stream) (*cpu.Core, *cpu.PrivatePort) {
	port := &cpu.PrivatePort{H: mem.NewHierarchy(mem.Config{}), SharedCost: mem.LatCrossCore}
	return e.newCore(cfg, prog, port), port
}

// MeasurementHandler models the paper's measurement handler: it reads the
// TSC, stores the observed timestamps and bookkeeping (§3.4's 400 K-sample
// harness). Its cost is part of the measured end-to-end latency.
func MeasurementHandler() []isa.MicroOp {
	var ops []isa.MicroOp
	// rdtsc (serializing-ish read), compare with the loop-recorded value,
	// store both, increment the sample counter.
	ops = append(ops,
		isa.MicroOp{Class: isa.IntAlu, Lat: 18, BoundaryStart: true},          // rdtsc
		isa.MicroOp{Class: isa.Load, Addr: 0x9000, BoundaryStart: true},       // load loop timestamp
		isa.MicroOp{Class: isa.IntAlu, Dep1: 1, Dep2: 2, BoundaryStart: true}, // delta
		isa.MicroOp{Class: isa.Store, Addr: 0x9040, Dep1: 1, BoundaryStart: true},
		isa.MicroOp{Class: isa.Load, Addr: 0x9080, BoundaryStart: true}, // sample index
		isa.MicroOp{Class: isa.IntAlu, Dep1: 1, BoundaryStart: true},
		isa.MicroOp{Class: isa.Store, Addr: 0x9080, Dep1: 1, BoundaryStart: true},
	)
	return ops
}

// TinyHandler is the minimal handler used when only mechanism costs are
// being measured (Fig. 4-style): acknowledge and return.
func TinyHandler() []isa.MicroOp {
	return []isa.MicroOp{
		{Class: isa.IntAlu, BoundaryStart: true},
		{Class: isa.Store, Addr: 0x9100, Dep1: 1, BoundaryStart: true},
	}
}

// SlowBranchStream produces DRAM-missing loads each feeding a
// mispredicted branch, so branches resolve hundreds of cycles after fetch
// — the adversarial stream for exercising tracked re-injection.
func SlowBranchStream(n int) isa.Stream {
	ops := make([]isa.MicroOp, 0, 2*n)
	addr := uint64(0x4000_0000)
	for i := 0; i < n; i++ {
		addr += 1 << 16 // always cold
		ops = append(ops,
			isa.MicroOp{Class: isa.Load, Addr: addr, BoundaryStart: true},
			isa.MicroOp{Class: isa.Branch, Dep1: 1, Taken: true, Mispredict: true, BoundaryStart: true},
		)
	}
	return isa.NewSliceStream("slowbranch", ops)
}

// ReceiverEventCost measures the added receiver cycles per interrupt for
// the given strategy, workload and delivery path, by differencing against
// an interrupt-free run (the Fig. 4 methodology). period is in cycles.
//
// The baseline is memoized: an interrupt-free run cannot depend on the
// delivery strategy (it is consulted only on interrupt paths), so all
// of fig4's strategy cells — and any other experiment differencing
// against the same (workload, seed, budget) — share one cached run.
func (e *Env) ReceiverEventCost(strategy cpu.Strategy, workload string, skipNotif bool, period uint64, nUops uint64) float64 {
	rBase := e.workloadBaseline(workload, 1, nUops, nUops*400)

	rIntr := e.runReceiver(receiverCfg(strategy), e.workloadStream(workload, 1, nUops),
		nUops, nUops*400,
		func(c *cpu.Core, port *cpu.PrivatePort) {
			c.PeriodicInterrupts(period, period, func() cpu.Interrupt {
				if !skipNotif {
					port.MarkRemoteWrite(UPIDAddr)
				}
				return cpu.Interrupt{Vector: 1, SkipNotification: skipNotif, Handler: TinyHandler()}
			})
		})
	n := len(rIntr.Interrupts)
	if n == 0 {
		return 0
	}
	return float64(int64(rIntr.Cycles)-int64(rBase.Cycles)) / float64(n)
}

// SenduipiLoopCost measures the sender-side cost of a successful senduipi
// in a tight loop (the §3.5 experiment: averaging over millions of sends;
// we use a few hundred, the model is deterministic). It also returns the
// cycle offset within one senduipi at which the ICR write completes (the
// IPI departure point).
func (e *Env) SenduipiLoopCost(iters int) (perSend float64, icrOffset float64) {
	// Memoized: Table 2 and Fig. 2 both run this exact study.
	c := cached(e, senduipiCache, fmt.Sprintf("iters=%d", iters), func() senduipiCost {
		per, icr := e.senduipiLoopCost(iters)
		return senduipiCost{per: per, icr: icr}
	})
	return c.per, c.icr
}

func (e *Env) senduipiLoopCost(iters int) (perSend float64, icrOffset float64) {
	routine, icrIdx := uintr.SenduipiRoutine(UITTAddr, UPIDAddr)
	perIter := len(routine.Ops)
	ops := make([]isa.MicroOp, 0, perIter*iters)
	for i := 0; i < iters; i++ {
		ops = append(ops, routine.Ops...)
	}
	for i := range ops {
		ops[i].BoundaryStart = true
	}
	prog := isa.NewSliceStream("senduipi-loop", ops)

	// Each send's UPID access is remote: the receiver acknowledged the
	// previous notification, pulling the line away.
	var icrCommits, startCommits []uint64
	cfg := cpu.DefaultConfig()
	cfg.Ucode = Ucode()
	e.runReceiver(cfg, prog, uint64(len(ops)), uint64(len(ops))*500,
		func(core *cpu.Core, port *cpu.PrivatePort) {
			core.OnProgramCommit = func(pos, cycle uint64) {
				rel := int(pos) % perIter
				if rel == 0 {
					startCommits = append(startCommits, cycle)
					port.MarkRemoteWrite(UPIDAddr)
				}
				if rel == icrIdx {
					icrCommits = append(icrCommits, cycle)
				}
			}
			port.MarkRemoteWrite(UPIDAddr)
		})

	// Skip warmup iterations.
	skip := 8
	if iters <= skip+2 {
		skip = 0
	}
	n := 0
	var sumPer, sumICR float64
	for i := skip + 1; i < len(startCommits) && i < len(icrCommits); i++ {
		sumPer += float64(startCommits[i] - startCommits[i-1])
		sumICR += float64(icrCommits[i-1] - startCommits[i-1])
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sumPer / float64(n), sumICR / float64(n)
}

// PollingCosts measures the cost of memory-based notification: the
// steady-state cost of one negative poll (L1 hit, predicted branch) and
// the cost of a positive poll (remote invalidation → cache-to-cache miss,
// mispredicted branch) — the ≈100-cycle figure from §2.
func (e *Env) PollingCosts() (negative float64, positive float64) {
	// Negative polls: difference between an instrumented and plain stream.
	const n = 120000
	rPlain := e.workloadBaseline("base64", 3, n, n*400)
	// The instrumented stream interleaves 2 extra ops per 10; run the same
	// count of *inner* ops: total = n * 12/10. Interrupt-free, so it
	// memoizes like any baseline.
	rInstr := e.pollBaseline("base64", 3, 10, n)
	checks := float64(n) / 10
	negative = (float64(rInstr.Cycles) - float64(rPlain.Cycles)) / checks
	if negative < 0 {
		negative = 0
	}

	// Positive poll: a single shared load that misses due to a remote
	// write, plus the mispredicted branch's squash/redirect.
	positive = float64(mem.LatCrossCore) + float64(cpu.DefaultConfig().FrontEndDepth)
	return negative, positive
}
