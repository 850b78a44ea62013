package obs

import "xui/internal/stats"

// SimProbe satisfies sim.Probe (structurally — this package does not import
// internal/sim): it counts event scheduling/dispatch/cancellation and the
// queue depth left at each dispatch in plain per-probe state, moves them
// into the metrics registry (sim/events_* counters, sim/queue_depth
// histogram) at Flush, and samples that depth onto a trace counter track.
// Dispatches are sampled rather than traced individually: a Tier-2 horizon
// fires millions of events and per-event trace records would swamp the
// buffer.
type SimProbe struct {
	Trace *Tracer
	Pid   uint32

	// SampleEvery controls how often (in dispatched events) the pending
	// counter track is sampled; zero means every 1024 dispatches.
	SampleEvery uint64

	sampled uint64 // dispatches seen by the trace sampler

	// n is what the probe has counted since the last Flush. A probe
	// serves one single-threaded Simulator, so counting takes no atomic
	// and no lock.
	n SimCounts

	// Handles resolved once by NewSimProbe, written only by Flush.
	evScheduled, evFired, evCancelled *Counter
	depth                             *Histogram
}

// SimCounts is what a SimProbe counts between flushes: events scheduled,
// fired and cancelled, and the queue depth left at each dispatch. Kept
// copies (CopyCounts) are a probe's earlier states, the arguments of
// SameStep and Repeat; the zero value is an empty copy.
type SimCounts struct {
	scheduled, fired, cancelled uint64
	depths                      stats.Histogram
}

// NewSimProbe builds a probe that attributes its trace samples to pid and
// flushes its counts into reg (nil discards them).
func NewSimProbe(tr *Tracer, reg *Registry, pid uint32) *SimProbe {
	p := &SimProbe{
		Trace:       tr,
		Pid:         pid,
		evScheduled: reg.CounterHandle("sim/events_scheduled"),
		evFired:     reg.CounterHandle("sim/events_fired"),
		evCancelled: reg.CounterHandle("sim/events_cancelled"),
		depth:       reg.HistogramHandle("sim/queue_depth"),
	}
	p.n.depths = *stats.NewHistogram()
	return p
}

// Flush moves everything counted since the last Flush into the registry.
// A count of zero writes nothing, so a name the run never touched stays
// out of the snapshot. The probe's owner calls it when the simulator's
// run ends, as core.Machine.SnapshotMetrics does.
func (p *SimProbe) Flush() {
	n := &p.n
	addNonZero(p.evScheduled, n.scheduled)
	addNonZero(p.evFired, n.fired)
	addNonZero(p.evCancelled, n.cancelled)
	if n.depths.Count() != 0 && p.depth != nil {
		p.depth.merge(&n.depths)
	}
	n.scheduled, n.fired, n.cancelled = 0, 0, 0
	n.depths.Reset()
}

// addNonZero adds n to c unless n is zero: Add(0) would mark an
// unwritten name as written.
func addNonZero(c *Counter, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}

// CopyCounts copies what p has counted since its last Flush into dst,
// reusing dst's storage.
func (p *SimProbe) CopyCounts(dst *SimCounts) {
	dst.scheduled, dst.fired, dst.cancelled = p.n.scheduled, p.n.fired, p.n.cancelled
	dst.depths.CopyFrom(&p.n.depths)
}

// SameStep reports whether p counted, since its earlier state mid,
// exactly what mid had counted since its earlier state old.
func (p *SimProbe) SameStep(old, mid *SimCounts) bool {
	n := &p.n
	return n.scheduled-mid.scheduled == mid.scheduled-old.scheduled &&
		n.fired-mid.fired == mid.fired-old.fired &&
		n.cancelled-mid.cancelled == mid.cancelled-old.cancelled &&
		n.depths.SameStep(&old.depths, &mid.depths)
}

// Repeat counts k more times everything p counted since its earlier
// state prev.
func (p *SimProbe) Repeat(prev *SimCounts, k uint64) {
	n := &p.n
	n.scheduled += k * (n.scheduled - prev.scheduled)
	n.fired += k * (n.fired - prev.fired)
	n.cancelled += k * (n.cancelled - prev.cancelled)
	n.depths.Repeat(&prev.depths, k)
}

// EventScheduled implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventScheduled(now, when uint64) {
	p.n.scheduled++
}

// EventFired implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventFired(when uint64, pending int) {
	p.n.fired++
	p.n.depths.Record(uint64(pending))
	p.sampled++
	every := p.SampleEvery
	if every == 0 {
		every = 1024
	}
	if p.sampled%every == 0 && p.Trace.Enabled() {
		p.Trace.Counter(p.Pid, "sim.pendingEvents", when, float64(pending)) //xui:alloc sampled trace record, only with a tracer attached
	}
}

// EventCancelled implements sim.Probe.
//
//xui:noalloc
func (p *SimProbe) EventCancelled(now uint64) {
	p.n.cancelled++
}
