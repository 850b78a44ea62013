package obs

import "fmt"

// Pipeline is the Tier-1 observer: it satisfies cpu.IntrObserver
// (structurally — this package does not import internal/cpu) and turns the
// interrupt-delivery state machine's transitions into trace spans and
// metrics. One Pipeline instance observes one core; spans land on
// (Pid, Tid) and metrics under the "cpu<Tid>/" namespace.
//
// Per interrupt it emits, as applicable:
//
//	arrive (instant) → flush | drain | await-boundary → refill →
//	notification → delivery → handler → uiret (all spans)
//
// plus reinject/lost instants when the tracked state machine re-arms or the
// ablation drops an interrupt.
type Pipeline struct {
	Trace *Tracer
	Pid   uint32
	Tid   uint32

	strategy string
	m        pipelineMetrics

	// In-flight interrupt state (one delivery at a time per core, matching
	// the UIF semantics of the pipeline model).
	arrive      uint64
	tag         string
	injectStart uint64
	notifEnd    uint64
	handlerHi   uint64 // handler start, then handler done
	phaseEnd    uint64 // end of the last emitted span
}

// pipelineMetrics holds one core's metric handles, resolved once by
// NewPipeline: the per-core "cpu<tid>/" instruments and the shared
// aggregate histograms. All nil without a registry.
type pipelineMetrics struct {
	arrived, deferred, squashed, reinjections, delivered, lost *Counter

	drainCycles, injectLatency, firstCommit, deliveryLatency, e2eLatency *Histogram
	aggNotifToCommit, aggDelivery, aggHandler, aggE2E                    *Histogram
}

// NewPipeline builds an observer for one Tier-1 core, counting into reg
// (nil discards the metrics).
func NewPipeline(tr *Tracer, reg *Registry, pid, tid uint32) *Pipeline {
	p := &Pipeline{Trace: tr, Pid: pid, Tid: tid}
	if reg != nil {
		ns := fmt.Sprintf("cpu%d/", tid)
		p.m = pipelineMetrics{
			arrived:          reg.CounterHandle(ns + "arrived"),
			deferred:         reg.CounterHandle(ns + "deferred"),
			squashed:         reg.CounterHandle(ns + "squashed_at_arrival"),
			reinjections:     reg.CounterHandle(ns + "reinjections"),
			delivered:        reg.CounterHandle(ns + "delivered"),
			lost:             reg.CounterHandle(ns + "lost"),
			drainCycles:      reg.HistogramHandle(ns + "drain_cycles"),
			injectLatency:    reg.HistogramHandle(ns + "inject_latency"),
			firstCommit:      reg.HistogramHandle(ns + "first_commit_latency"),
			deliveryLatency:  reg.HistogramHandle(ns + "delivery_latency"),
			e2eLatency:       reg.HistogramHandle(ns + "e2e_latency"),
			aggNotifToCommit: reg.HistogramHandle(AggNotifToCommit),
			aggDelivery:      reg.HistogramHandle(AggDeliveryLatency),
			aggHandler:       reg.HistogramHandle(AggHandlerOccupancy),
			aggE2E:           reg.HistogramHandle(AggEndToEndLatency),
		}
	}
	tr.NameProcess(pid, "tier1-pipeline")
	tr.NameThread(pid, tid, fmt.Sprintf("core%d", tid))
	return p
}

const catIntr = "interrupt"

// Aggregate histogram names shared by every observed Tier-1 core. Unlike
// the per-core "cpu<tid>/" namespace (whose tids are assigned in worker
// completion order and therefore vary across -j N), these keys are fixed,
// and histogram merge order-independence makes their contents byte-identical
// across worker counts — they are the tail-latency columns of run
// reports' metrics snapshots.
const (
	AggDeliveryLatency   = "cpu/delivery_latency"
	AggHandlerOccupancy  = "cpu/handler_occupancy"
	AggNotifToCommit     = "cpu/notif_to_first_commit"
	AggEndToEndLatency   = "cpu/e2e_latency"
	AggTier2DeliveryWait = "tier2/delivery_latency"
)

// IntrArrive implements cpu.IntrObserver.
func (p *Pipeline) IntrArrive(cycle uint64, tag string, vector uint8, strategy string) {
	p.arrive, p.tag, p.strategy = cycle, tag, strategy
	p.injectStart, p.notifEnd, p.handlerHi, p.phaseEnd = 0, 0, 0, cycle
	if p.Trace.Enabled() {
		p.Trace.Instant(p.Pid, p.Tid, "arrive", catIntr, cycle, map[string]any{
			"tag": tag, "vector": vector, "strategy": strategy,
		})
	}
	p.m.arrived.Add(1)
}

// IntrDeferred implements cpu.IntrObserver: the interrupt was posted while
// another delivery was in progress (or UIF was clear).
func (p *Pipeline) IntrDeferred(cycle uint64) {
	p.Trace.Instant(p.Pid, p.Tid, "deferred", catIntr, cycle, nil)
	p.m.deferred.Add(1)
}

// IntrSquash implements cpu.IntrObserver: the Flush strategy squashed n
// in-flight micro-ops on arrival.
func (p *Pipeline) IntrSquash(startCy, endCy uint64, squashed int) {
	if p.Trace.Enabled() {
		p.Trace.Span(p.Pid, p.Tid, "flush", catIntr, startCy, endCy, map[string]any{"squashedUops": squashed})
	}
	p.m.squashed.Add(uint64(squashed))
	p.phaseEnd = endCy
}

// IntrDrain implements cpu.IntrObserver: the Drain/LegacyGem5 strategies
// waited for the window to empty.
func (p *Pipeline) IntrDrain(startCy, endCy uint64) {
	p.Trace.Span(p.Pid, p.Tid, "drain", catIntr, startCy, endCy, nil)
	p.m.drainCycles.Record(endCy - startCy)
	p.phaseEnd = endCy
}

// IntrRefill implements cpu.IntrObserver: the front-end is stalled
// refilling after a squash (squash walk + redirect + serializing entry).
func (p *Pipeline) IntrRefill(startCy, endCy uint64) {
	p.Trace.Span(p.Pid, p.Tid, "refill", catIntr, startCy, endCy, nil)
	p.phaseEnd = endCy
}

// IntrInject implements cpu.IntrObserver: the first microcode op of the
// current (re-)injection entered rename.
func (p *Pipeline) IntrInject(cycle uint64, reinjection bool) {
	if p.strategy == "tracked" && !reinjection && cycle > p.phaseEnd {
		// Tracked delivery waited for an instruction boundary / safepoint.
		p.Trace.Span(p.Pid, p.Tid, "await-boundary", catIntr, p.phaseEnd, cycle, nil)
	}
	p.injectStart = cycle
	p.m.injectLatency.Record(cycle - p.arrive)
	if reinjection {
		p.Trace.Instant(p.Pid, p.Tid, "reinject", catIntr, cycle, nil)
		p.m.reinjections.Add(1)
	}
}

// IntrFirstCommit implements cpu.IntrObserver.
func (p *Pipeline) IntrFirstCommit(cycle uint64) {
	p.Trace.Instant(p.Pid, p.Tid, "first-ucode-commit", catIntr, cycle, nil)
	p.m.firstCommit.Record(cycle - p.arrive)
	p.m.aggNotifToCommit.Record(cycle - p.arrive)
}

// IntrNotifDone implements cpu.IntrObserver: the notification-processing
// routine (UPID read, ON clear, PIR drain) retired.
func (p *Pipeline) IntrNotifDone(cycle uint64) {
	p.Trace.Span(p.Pid, p.Tid, "notification", catIntr, p.injectStart, cycle, nil)
	p.notifEnd = cycle
}

// IntrDeliveryDone implements cpu.IntrObserver: the delivery routine
// (stack pushes, UIF clear, jump to handler) retired.
func (p *Pipeline) IntrDeliveryDone(cycle uint64) {
	start := p.injectStart
	if p.notifEnd > start {
		start = p.notifEnd
	}
	p.Trace.Span(p.Pid, p.Tid, "delivery", catIntr, start, cycle, nil)
	p.m.deliveryLatency.Record(cycle - p.arrive)
	p.m.aggDelivery.Record(cycle - p.arrive)
}

// IntrHandlerStart implements cpu.IntrObserver.
func (p *Pipeline) IntrHandlerStart(cycle uint64) { p.handlerHi = cycle }

// IntrHandlerDone implements cpu.IntrObserver.
func (p *Pipeline) IntrHandlerDone(cycle uint64) {
	p.Trace.Span(p.Pid, p.Tid, "handler", catIntr, p.handlerHi, cycle, nil)
	p.m.aggHandler.Record(cycle - p.handlerHi)
	p.handlerHi = cycle
}

// IntrUiret implements cpu.IntrObserver: uiret retired, delivery complete.
func (p *Pipeline) IntrUiret(cycle uint64) {
	start := p.handlerHi
	if start == 0 {
		start = p.injectStart
	}
	p.Trace.Span(p.Pid, p.Tid, "uiret", catIntr, start, cycle, nil)
	p.m.delivered.Add(1)
	p.m.e2eLatency.Record(cycle - p.arrive)
	p.m.aggE2E.Record(cycle - p.arrive)
}

// IntrLost implements cpu.IntrObserver: the TrackedReinject ablation
// dropped an interrupt squashed before its first commit.
func (p *Pipeline) IntrLost(cycle uint64) {
	p.Trace.Instant(p.Pid, p.Tid, "lost", catIntr, cycle, nil)
	p.m.lost.Add(1)
}
