package experiments

import (
	"xui/internal/apic"
	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/trace"
	"xui/internal/uintr"
)

// Table2Result reproduces Table 2: key performance metrics of UIPIs, in
// cycles. Paper values: end-to-end 1360, receiver 720, senduipi 383,
// clui 2, stui 32.
type Table2Result struct {
	EndToEnd     float64
	ReceiverCost float64
	Senduipi     float64
	Clui         float64
	Stui         float64

	// Delivery summarises the full latency distributions behind the mean
	// costs above, from the same instrumented stock-UIPI run: the paper's
	// Table 2 reports means, the distributions show the tails.
	Delivery cpu.LatencyDigest
}

// PaperTable2 is the paper's measured row, for side-by-side reporting.
func PaperTable2() Table2Result {
	return Table2Result{EndToEnd: 1360, ReceiverCost: 720, Senduipi: 383, Clui: 2, Stui: 32}
}

// measuredUIPIRun is the stock-UIPI instrumented run Table 2's receiver
// cost and Figure 2's timeline are both decomposed from: periodic UIPIs
// into the rdtsc measurement loop, flush strategy, full notification
// path. One memoized entry serves both experiments (and §2, which
// re-derives Table 2).
func (e *Env) measuredUIPIRun() cpu.Result {
	const period = 20000
	const uops = 300000
	return cached(e, e.memo().receiver, "rdtscloop/flush/measure/p20000/u300000", func() cpu.Result {
		return e.runReceiver(receiverCfg(cpu.Flush), trace.NewRdtscLoop(), uops, uops*400,
			func(c *cpu.Core, port *cpu.PrivatePort) {
				c.PeriodicInterrupts(period, period, func() cpu.Interrupt {
					port.MarkRemoteWrite(UPIDAddr)
					return cpu.Interrupt{Vector: 1, Handler: MeasurementHandler()}
				})
			})
	})
}

// Table2 measures the same quantities on the Tier-1 pipeline model, using
// the paper's methodology: a sender core running a senduipi loop, a
// receiver core running the rdtsc measurement loop, stock UIPI delivery
// (flush strategy, full notification path).
func (e *Env) Table2() Table2Result {
	// The three measurements are independent simulations; fan them out.
	const uops = 300000
	type part struct {
		send, icr float64
		res       cpu.Result
	}
	parts := runGrid(e, "table2", []int{0, 1, 2}, func(_ int, which int) part {
		switch which {
		case 0:
			send, icr := e.SenduipiLoopCost(60)
			return part{send: send, icr: icr}
		case 1:
			// Interrupt-free rdtsc loop (the differencing baseline,
			// memoized across Table2 invocations — §2 re-derives it).
			return part{res: e.baselineRun("rdtscloop", func() isa.Stream { return trace.NewRdtscLoop() }, uops, uops*400)}
		default:
			// Receiver cost: added receiver cycles per UIPI on the rdtsc loop.
			return part{res: e.measuredUIPIRun()}
		}
	})
	send, icr := parts[0].send, parts[0].icr
	rBase, rIntr := parts[1].res, parts[2].res
	n := len(rIntr.Interrupts)
	recv := 0.0
	if n > 0 {
		recv = float64(int64(rIntr.Cycles)-int64(rBase.Cycles)) / float64(n)
	}

	// End-to-end: senduipi start → measurement handler completes on the
	// receiver. Arrival = ICR-write completion + bus hop; the receiver
	// side is the mean Arrive→HandlerDone from the instrumented run.
	var recvPath float64
	cnt := 0
	for _, r := range rIntr.Interrupts {
		if r.HandlerDone == 0 {
			continue
		}
		recvPath += float64(r.HandlerDone - r.Arrive)
		cnt++
	}
	if cnt > 0 {
		recvPath /= float64(cnt)
	}
	endToEnd := icr + float64(apic.BusLatency) + recvPath

	return Table2Result{
		EndToEnd:     endToEnd,
		ReceiverCost: recv,
		Senduipi:     send,
		Clui:         uintr.CluiCost,
		Stui:         uintr.StuiCost,
		Delivery:     rIntr.LatencyDigest(),
	}
}
