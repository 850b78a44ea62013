// Package obs is the unified observability layer shared by both simulation
// tiers: a structured trace recorder that streams Chrome trace-event /
// Perfetto JSON to a writer as it records, and a metrics registry of
// counters, gauges and log-bucketed histograms with JSON snapshot export.
//
// Observability is strictly opt-in. Every entry point is nil-safe: calling
// any method on a nil *Tracer, *Registry or *Context is a no-op, so
// instrumented code needs only a single pointer test (or none at all) on
// its hot paths and a disabled build pays essentially nothing. A benchmark
// in the root package (BenchmarkObsDisabled) guards this property.
//
// Tracer and Registry are safe for concurrent use so that parallel sweep
// workers (internal/sweep) can share the single sink a CLI run installs;
// each individual Simulator remains single-threaded.
//
// # Conventions
//
// Trace timestamps are simulated cycles of the 2 GHz machine and are
// converted to fractional microseconds when serialised (the unit the Chrome
// trace-event format specifies). Process/thread IDs partition the timeline:
//
//	pid 1 — Tier-1 pipeline cores (tid = core index)
//	pid 2 — Tier-2 event-level machine (tid = VCore ID)
//
// Metric names are slash-separated component namespaces, e.g.
// "cpu0/delivered", "vcore1/cycles/notify", "sim/events_fired".
package obs

import "sync"

// CyclesPerMicrosecond converts simulated cycles to trace microseconds
// (2 GHz clock, matching sim.CyclesPerSecond).
const CyclesPerMicrosecond = 2000.0

// Tier1Pid and Tier2Pid are the trace process IDs the two simulation tiers
// record events under (see the package conventions above). SweepPid is the
// process the parallel sweep engine (internal/sweep) records host-side
// orchestration events under: one trace thread per worker, timestamps in
// host nanoseconds scaled to the 2 GHz cycle clock so the exported
// microseconds read as real wall time.
const (
	Tier1Pid uint32 = 1
	Tier2Pid uint32 = 2
	SweepPid uint32 = 3
)

// event is one Chrome trace-event record. Timestamps are kept in cycles
// until serialised.
type event struct {
	name     string
	cat      string
	ph       byte // 'X' span, 'i' instant, 'C' counter, 'M' metadata
	startCy  uint64
	endCy    uint64 // valid for 'X'
	pid, tid uint32
	args     map[string]any
}

// Tracer records structured events and streams them in the Chrome
// trace-event JSON format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing. A nil Tracer discards everything. Tracer is safe for
// concurrent use: each Simulator is single-threaded, but the sweep engine
// (internal/sweep) fans independent runs across worker goroutines that all
// record into the one tracer the CLI installed.
//
// A tracer (NewStreamTracer/StreamFile) serialises events to its writer
// in bounded-memory chunks as they are recorded; Close seals the
// document.
type Tracer struct {
	mu     sync.Mutex
	events []event //xui:guardedby mu
	n      uint64  //xui:guardedby mu

	stream *streamState
	closed bool //xui:guardedby mu
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Events returns the number of events recorded so far.
func (t *Tracer) Events() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

//xui:noalloc
func (t *Tracer) add(e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.events = append(t.events, e)
	t.n++
	if len(t.events) >= t.stream.chunk {
		t.flushLocked() // cold path: serialisation lives off the recording path
	}
}

// Span records a complete ('X') event covering [startCy, endCy]. Zero-length
// spans are widened to one cycle so they stay visible in the viewer.
func (t *Tracer) Span(pid, tid uint32, name, cat string, startCy, endCy uint64, args map[string]any) {
	if t == nil {
		return
	}
	if endCy <= startCy {
		endCy = startCy + 1
	}
	t.add(event{name: name, cat: cat, ph: 'X', startCy: startCy, endCy: endCy, pid: pid, tid: tid, args: args})
}

// Instant records a thread-scoped instant ('i') event at atCy.
func (t *Tracer) Instant(pid, tid uint32, name, cat string, atCy uint64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(event{name: name, cat: cat, ph: 'i', startCy: atCy, pid: pid, tid: tid, args: args})
}

// Counter records a counter-track ('C') sample: the viewer draws one track
// per name interpolating between samples.
func (t *Tracer) Counter(pid uint32, name string, atCy uint64, value float64) {
	if t == nil {
		return
	}
	t.add(event{name: name, ph: 'C', startCy: atCy, pid: pid, args: map[string]any{"value": value}})
}

// NameProcess attaches a display name to pid (metadata event).
func (t *Tracer) NameProcess(pid uint32, name string) {
	if t == nil {
		return
	}
	t.add(event{name: "process_name", ph: 'M', pid: pid, args: map[string]any{"name": name}})
}

// NameThread attaches a display name to (pid, tid).
func (t *Tracer) NameThread(pid, tid uint32, name string) {
	if t == nil {
		return
	}
	t.add(event{name: "thread_name", ph: 'M', pid: pid, tid: tid, args: map[string]any{"name": name}})
}

func cyclesToUs(cy uint64) float64 { return float64(cy) / CyclesPerMicrosecond }

// Context bundles a tracer and a registry, either of which may be nil. It
// is the single handle instrumented components hold; a nil *Context (or a
// Context with both fields nil) disables observability entirely.
type Context struct {
	Trace   *Tracer
	Metrics *Registry
}

// TracerOrNil returns the context's tracer, nil when ctx is nil.
func (c *Context) TracerOrNil() *Tracer {
	if c == nil {
		return nil
	}
	return c.Trace
}

// RegistryOrNil returns the context's registry, nil when ctx is nil.
func (c *Context) RegistryOrNil() *Registry {
	if c == nil {
		return nil
	}
	return c.Metrics
}
