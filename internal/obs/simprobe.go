package obs

import "xui/internal/stats"

// SimProbe satisfies sim.Probe (structurally — this package does not import
// internal/sim): it counts event scheduling/dispatch/cancellation in the
// metrics registry, records the queue depth left at each dispatch into the
// sim/queue_depth histogram (buffered until Flush), and samples that depth
// onto a trace counter track. Dispatches are sampled rather than traced
// individually: a Tier-2 horizon fires millions of events and per-event
// trace records would swamp the buffer.
type SimProbe struct {
	Trace *Tracer
	Pid   uint32

	// SampleEvery controls how often (in dispatched events) the pending
	// counter track is sampled; zero means every 1024 dispatches.
	SampleEvery uint64

	fired uint64

	// Handles resolved once by NewSimProbe.
	evScheduled, evFired, evCancelled *Counter
	depth                             *Histogram
	// depths buffers the dispatch-time queue depths until Flush. A probe
	// serves one single-threaded Simulator, so recording takes no lock.
	depths *stats.Histogram
}

// NewSimProbe builds a probe that attributes its trace samples to pid and
// counts into reg (nil discards the counts).
func NewSimProbe(tr *Tracer, reg *Registry, pid uint32) *SimProbe {
	p := &SimProbe{
		Trace:       tr,
		Pid:         pid,
		evScheduled: reg.CounterHandle("sim/events_scheduled"),
		evFired:     reg.CounterHandle("sim/events_fired"),
		evCancelled: reg.CounterHandle("sim/events_cancelled"),
		depth:       reg.HistogramHandle("sim/queue_depth"),
	}
	if reg != nil {
		p.depths = stats.NewHistogram()
	}
	return p
}

// Flush moves the queue depths recorded since the last Flush into the
// registry's sim/queue_depth histogram. The probe's owner calls it when
// the simulator's run ends, as core.Machine.SnapshotMetrics does.
func (p *SimProbe) Flush() {
	if p.depths == nil || p.depths.Count() == 0 {
		return
	}
	p.depth.merge(p.depths)
	p.depths.Reset()
}

// EventScheduled implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventScheduled(now, when uint64) {
	p.evScheduled.Add(1)
}

// EventFired implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventFired(when uint64, pending int) {
	p.evFired.Add(1)
	if p.depths != nil {
		p.depths.Record(uint64(pending))
	}
	p.fired++
	every := p.SampleEvery
	if every == 0 {
		every = 1024
	}
	if p.fired%every == 0 && p.Trace.Enabled() {
		p.Trace.Counter(p.Pid, "sim.pendingEvents", when, float64(pending)) //xui:alloc sampled trace record, only with a tracer attached
	}
}

// EventCancelled implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventCancelled(now uint64) {
	p.evCancelled.Add(1)
}
