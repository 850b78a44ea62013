package obs

// SimProbe satisfies sim.Probe (structurally — this package does not import
// internal/sim): it counts event scheduling/dispatch/cancellation in the
// metrics registry and samples the pending-queue depth onto a trace counter
// track. Dispatches are sampled rather than traced individually: a Tier-2
// horizon fires millions of events and per-event trace records would
// swamp the buffer.
type SimProbe struct {
	Trace *Tracer
	Pid   uint32

	// SampleEvery controls how often (in dispatched events) the pending
	// counter track is sampled; zero means every 1024 dispatches.
	SampleEvery uint64

	fired uint64

	// Counter handles resolved once by NewSimProbe.
	evScheduled, evFired, evCancelled *Counter
}

// NewSimProbe builds a probe that attributes its trace samples to pid and
// counts into reg (nil discards the counts).
func NewSimProbe(tr *Tracer, reg *Registry, pid uint32) *SimProbe {
	return &SimProbe{
		Trace:       tr,
		Pid:         pid,
		evScheduled: reg.CounterHandle("sim/events_scheduled"),
		evFired:     reg.CounterHandle("sim/events_fired"),
		evCancelled: reg.CounterHandle("sim/events_cancelled"),
	}
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
