package experiments

import (
	"fmt"
	"math"

	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/trace"
)

// Section 3.5 — "Deconstructing the UIPI Microarchitecture": the paper's
// two reverse-engineering programs, reproduced against our own pipeline so
// the methodology itself is validated. On real hardware the strategy was
// unknown; here we run both detectors against cores configured to flush
// and to drain and check that each detector tells them apart.

// S35ChaseRow is one point of the pointer-chase detector: end-to-end
// delivery latency as the receiver's in-flight load chain gets slower
// (bigger working set → more cache misses). Under a flush strategy the
// latency is independent of the chain; under drain it grows with it.
type S35ChaseRow struct {
	WorkingSetKB int
	FlushCycles  float64 // mean arrival→delivery, flush core
	DrainCycles  float64 // same, drain core
}

// S35PointerChase sweeps the chase working set for both strategies.
func (e *Env) S35PointerChase(workingSetsKB []int) []S35ChaseRow {
	type job struct {
		strategy cpu.Strategy
		ws       int
	}
	var jobs []job
	for _, ws := range workingSetsKB {
		jobs = append(jobs, job{cpu.Flush, ws}, job{cpu.Drain, ws})
	}
	lats := runGrid(e, "s35chase", jobs, func(_ int, j job) float64 {
		return e.s35ChasePoint(j.strategy, j.ws)
	})
	rows := make([]S35ChaseRow, len(workingSetsKB))
	for i, ws := range workingSetsKB {
		rows[i] = S35ChaseRow{WorkingSetKB: ws, FlushCycles: lats[2*i], DrainCycles: lats[2*i+1]}
	}
	return rows
}

func (e *Env) s35ChasePoint(s cpu.Strategy, wsKB int) float64 {
	prog := e.stream(streamSpec{key: fmt.Sprintf("chase/21/%d/0", uint64(wsKB)<<10), mk: func() isa.Stream {
		return trace.NewPointerChase(21, uint64(wsKB)<<10, 0)
	}}, 30000)
	res := e.runReceiver(receiverCfg(s), prog, 30000, 80_000_000,
		func(c *cpu.Core, port *cpu.PrivatePort) {
			for i := uint64(1); i <= 10; i++ {
				port.MarkRemoteWrite(UPIDAddr)
				c.ScheduleInterrupt(20000+i*25013, cpu.Interrupt{Vector: 1, Handler: TinyHandler()})
			}
		})
	var sum float64
	n := 0
	for _, r := range res.Interrupts {
		if r.DeliveryDone == 0 {
			continue
		}
		sum += float64(r.DeliveryDone - r.Arrive)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// S35FlushLinearity is the second detector: squashed micro-ops must grow
// exactly linearly with the number of interrupts received under a flush
// strategy (the paper estimated flushed uops as committed-minus-decoded,
// lacking a direct counter; the model counts them directly).
type S35FlushLinearity struct {
	Interrupts  []int
	Squashed    []uint64
	PerIntr     float64 // fitted slope: squashed uops per interrupt
	Correlation float64 // Pearson r between count and squashed
}

// S35Linearity runs the same workload with increasing interrupt counts.
func (e *Env) S35Linearity(counts []int) S35FlushLinearity {
	out := S35FlushLinearity{Interrupts: counts}
	out.Squashed = runGrid(e, "s35linearity", counts, func(_ int, k int) uint64 {
		uops := uint64(k+2) * 5000 / 2 * 3 // enough uops to span all arrivals
		res := e.runReceiver(receiverCfg(cpu.Flush), e.workloadStream("linpack", 4, uops),
			uops, 50_000_000,
			func(c *cpu.Core, port *cpu.PrivatePort) {
				for i := 1; i <= k; i++ {
					port.MarkRemoteWrite(UPIDAddr)
					c.ScheduleInterrupt(uint64(i)*5000, cpu.Interrupt{Vector: 1, Handler: TinyHandler()})
				}
			})
		return res.SquashedProgram
	})
	var xs, ys []float64
	for i, k := range counts {
		xs = append(xs, float64(k))
		ys = append(ys, float64(out.Squashed[i]))
	}
	out.PerIntr, out.Correlation = fitLine(xs, ys)
	return out
}

// fitLine returns the least-squares slope and the Pearson correlation.
func fitLine(xs, ys []float64) (slope, r float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	varY := n*syy - sy*sy
	if varY <= 0 {
		return slope, 1 // constant ys: degenerate but perfectly linear
	}
	r = (n*sxy - sx*sy) / math.Sqrt(den*varY)
	return slope, r
}
