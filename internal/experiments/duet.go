package experiments

import (
	"xui/internal/apic"
	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/mem"
	"xui/internal/uintr"
)

// Duet is the two-core Tier-1 co-simulation: a sender pipeline executing
// senduipi and a receiver pipeline running the measurement loop, stepped
// in lockstep and coupled through the real coherence model — the sender's
// UPID store genuinely invalidates the receiver's cached line, and the IPI
// crosses the bus at the cycle the sender's ICR write commits. It provides
// an end-to-end UIPI measurement that does not reuse any of the Table2()
// shortcut constants, as an independent cross-check.
type DuetResult struct {
	Sends          int
	Delivered      int
	MeanEndToEnd   float64 // senduipi iteration start → handler done, cycles
	MeanArrival    float64 // iteration start → receiver pin, cycles
	MeanRecvWindow float64 // receiver pin → handler done, cycles
}

// systemPort adapts one core's view of a shared mem.System to cpu.MemPort.
type systemPort struct {
	sys  *mem.System
	core int
}

// Load implements cpu.MemPort.
func (p *systemPort) Load(addr uint64) int { return p.sys.Core(p.core).Load(addr) }

// Store implements cpu.MemPort.
func (p *systemPort) Store(addr uint64) int { return p.sys.Core(p.core).Store(addr) }

// SharedLoad implements cpu.MemPort via the coherence directory.
func (p *systemPort) SharedLoad(addr uint64) int { return p.sys.SharedRead(p.core, addr) }

// SharedStore implements cpu.MemPort via the coherence directory.
func (p *systemPort) SharedStore(addr uint64) int { return p.sys.SharedWrite(p.core, addr) }

// Duet runs iters paced senduipi round trips.
func (e *Env) Duet(iters int) DuetResult {
	sys := mem.NewSystem(2, mem.Config{})

	// Sender program: senduipi followed by a ~1500-cycle dependent spacer
	// chain, so each round trip completes before the next send (the
	// paper's measurement harness paces the same way).
	routine, icrIdx := uintr.SenduipiRoutine(UITTAddr, UPIDAddr)
	const spacer = 1500
	perIter := len(routine.Ops) + spacer
	var ops []isa.MicroOp
	for i := 0; i < iters; i++ {
		ops = append(ops, routine.Ops...)
		for j := 0; j < spacer; j++ {
			ops = append(ops, isa.MicroOp{Class: isa.IntAlu, Dep1: 1})
		}
	}
	for i := range ops {
		ops[i].BoundaryStart = true
	}

	sendCfg := cpu.DefaultConfig()
	sendCfg.Ucode = Ucode()
	sender := e.newCore(sendCfg, isa.NewSliceStream("senduipi-duet", ops), &systemPort{sys: sys, core: 0})

	recvCfg := cpu.DefaultConfig()
	recvCfg.Strategy = cpu.Flush
	recvCfg.Ucode = Ucode()
	receiver := e.newCore(recvCfg, NewEndlessRdtsc(), &systemPort{sys: sys, core: 1})
	rcc := e.checkCore(receiver, "tier1/duet")

	var starts, icrs []uint64
	sender.OnProgramCommit = func(pos, cycle uint64) {
		switch int(pos) % perIter {
		case 0:
			starts = append(starts, cycle)
		case icrIdx:
			icrs = append(icrs, cycle)
			// ICR written: the IPI is on the wire toward the receiver.
			receiver.ScheduleInterrupt(cycle+uint64(apic.BusLatency), cpu.Interrupt{
				Vector:  1,
				Handler: MeasurementHandler(),
			})
		}
	}

	// Lockstep: one cycle each, until the sender's program retires.
	target := uint64(len(ops))
	for sender.CommittedProgram() < target && sender.Cycle() < uint64(len(ops))*400 {
		sender.RunCycles(64)
		receiver.RunCycles(64)
	}
	receiver.RunCycles(20000) // drain the final delivery
	finishCore(rcc)

	res := DuetResult{Sends: len(icrs)}
	recs := receiver.Records()
	var e2e, arr, win float64
	n := 0
	for i, r := range recs {
		if r.HandlerDone == 0 || i >= len(starts) {
			continue
		}
		e2e += float64(r.HandlerDone - starts[i])
		arr += float64(r.Arrive - starts[i])
		win += float64(r.HandlerDone - r.Arrive)
		n++
	}
	res.Delivered = n
	if n > 0 {
		res.MeanEndToEnd = e2e / float64(n)
		res.MeanArrival = arr / float64(n)
		res.MeanRecvWindow = win / float64(n)
	}
	return res
}

// EndlessRdtsc is an unbounded rdtsc measurement loop (the finite slice
// streams end; the receiver must not).
type EndlessRdtsc struct{ n uint64 }

// NewEndlessRdtsc builds the stream.
func NewEndlessRdtsc() *EndlessRdtsc { return &EndlessRdtsc{} }

// Name implements isa.Stream.
func (r *EndlessRdtsc) Name() string { return "rdtsc-endless" }

// Next implements isa.Stream.
func (r *EndlessRdtsc) Next() (isa.MicroOp, bool) {
	r.n++
	switch r.n % 3 {
	case 1:
		return isa.MicroOp{Class: isa.IntAlu, Lat: 18, BoundaryStart: true}, true
	case 2:
		return isa.MicroOp{Class: isa.Store, Addr: 0x8000, Dep1: 1, BoundaryStart: true}, true
	default:
		return isa.MicroOp{Class: isa.Branch, Taken: true, BoundaryStart: true}, true
	}
}
