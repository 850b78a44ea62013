package experiments

import (
	"fmt"

	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/stats"
	"xui/internal/trace"
)

// WorstCaseRow is one point of the §6.1 maximum-interrupt-latency study:
// the pipeline is filled with a chain of DRAM-missing loads that
// ultimately produces the stack-pointer value the delivery microcode
// needs.
type WorstCaseRow struct {
	ChainLen      int
	TrackedCycles uint64 // arrival → delivery complete, tracked
	FlushCycles   uint64 // same, flush (squashes the chain)

	// TrackedDist and FlushDist are the full delivery-latency
	// distributions over the probed arrival phases: the max above is the
	// paper's headline, the spread shows how pathological the worst phase
	// is relative to the median.
	TrackedDist stats.Summary
	FlushDist   stats.Summary
}

// WorstCase sweeps the load-chain length. The paper observes ≈7000 cycles
// worst case for tracking with chains of 50+ loads, an order of magnitude
// worse than flushing — and calls it "an extreme pathological case".
func (e *Env) WorstCase(chainLens []int) []WorstCaseRow {
	type job struct {
		strategy cpu.Strategy
		n        int
	}
	var jobs []job
	for _, n := range chainLens {
		jobs = append(jobs, job{cpu.Tracked, n}, job{cpu.Flush, n})
	}
	lats := runGrid(e, "worstcase", jobs, func(_ int, j job) wcLatency {
		return e.worstCaseLatency(j.strategy, j.n)
	})
	rows := make([]WorstCaseRow, len(chainLens))
	for i, n := range chainLens {
		rows[i] = WorstCaseRow{
			ChainLen:      n,
			TrackedCycles: lats[2*i].max,
			FlushCycles:   lats[2*i+1].max,
			TrackedDist:   lats[2*i].dist,
			FlushDist:     lats[2*i+1].dist,
		}
	}
	return rows
}

// wcLatency is one strategy's delivery-latency measurement at one chain
// length: the worst arrival phase plus the distribution across phases.
type wcLatency struct {
	max  uint64
	dist stats.Summary
}

func (e *Env) worstCaseLatency(s cpu.Strategy, chainLen int) wcLatency {
	// An SP write every chainLen hops ties RSP to a chain of that length.
	// It is a worst-*case* study: deliver several interrupts at different
	// chain phases and report the maximum delivery latency observed.
	prog := e.stream(streamSpec{key: fmt.Sprintf("chase/17/%d/%d", uint64(256<<20), chainLen), mk: func() isa.Stream {
		return trace.NewPointerChase(17, 256<<20, chainLen)
	}}, 60000)
	res := e.runReceiver(receiverCfg(s), prog, 60000, 100_000_000,
		func(c *cpu.Core, _ *cpu.PrivatePort) {
			for i := uint64(1); i <= 12; i++ {
				// Prime-ish spacing decorrelates arrival phase from chain phase.
				c.ScheduleInterrupt(10000+i*30013, cpu.Interrupt{
					Vector: 1, SkipNotification: true, Handler: TinyHandler(),
				})
			}
		})
	h := stats.NewHistogram()
	var max uint64
	for _, r := range res.Interrupts {
		if r.DeliveryDone == 0 {
			continue
		}
		d := r.DeliveryDone - r.Arrive
		h.Record(d)
		if d > max {
			max = d
		}
	}
	return wcLatency{max: max, dist: h.Summarize()}
}
