// Package obs is the unified observability layer shared by both simulation
// tiers: a structured trace recorder that exports Chrome trace-event /
// Perfetto JSON, and a metrics registry of counters, gauges and
// log-bucketed histograms with JSON snapshot export.
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
// converted to fractional microseconds at export time (the unit the Chrome
// trace-event format specifies). Process/thread IDs partition the timeline:
//
//	pid 1 — Tier-1 pipeline cores (tid = core index)
//	pid 2 — Tier-2 event-level machine (tid = VCore ID)
//
// Metric names are slash-separated component namespaces, e.g.
// "cpu0/delivered", "vcore1/cycles/notify", "sim/events_fired".
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

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

// DefaultMaxEvents bounds a Tracer's buffered event count so that tracing a
// long Tier-2 horizon cannot exhaust memory. What happens past the cap
// depends on the tracer's mode:
//
//   - Buffered (the default): further events are counted in Dropped() and
//     discarded. The loss is never silent — Export appends a final
//     "trace_dropped" metadata event plus otherData.droppedEvents, and
//     Context.ExportFiles publishes an "obs/dropped" counter into the
//     metrics registry.
//   - Streaming (StreamTo/StreamFile): there is no cap. MaxEvents is
//     ignored; resident memory is bounded by the chunk size and every
//     event reaches the stream (the mode long captures should use).
//
// Raise Tracer.MaxEvents for deep buffered captures, or stream instead.
const DefaultMaxEvents = 1 << 21

// event is one Chrome trace-event record. Timestamps are kept in cycles
// until export.
type event struct {
	name     string
	cat      string
	ph       byte // 'X' span, 'i' instant, 'C' counter, 'M' metadata
	startCy  uint64
	endCy    uint64 // valid for 'X'
	pid, tid uint32
	args     map[string]any
}

// Tracer records structured events and serialises them in the Chrome
// trace-event JSON format understood by Perfetto (ui.perfetto.dev) and
// chrome://tracing. A nil Tracer discards everything. Tracer is safe for
// concurrent use: each Simulator is single-threaded, but the sweep engine
// (internal/sweep) fans independent runs across worker goroutines that all
// record into the one tracer the CLI installed.
//
// A tracer operates in one of two modes (see DefaultMaxEvents for the
// overflow semantics of each): buffered (record then Export) or streaming
// (StreamTo/StreamFile: events flow to an io.Writer in bounded-memory
// chunks as they are recorded).
type Tracer struct {
	// MaxEvents caps the buffer; zero means DefaultMaxEvents. Ignored in
	// streaming mode.
	MaxEvents int

	mu      sync.Mutex
	events  []event //xui:guardedby mu
	dropped uint64  //xui:guardedby mu

	stream *streamState // non-nil: streaming mode
	closed bool         //xui:guardedby mu
}

// NewTracer returns an empty buffered tracer with the default event cap.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of resident (buffered, not yet flushed) events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded after the buffered-mode
// cap was hit (or recorded after Close).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

//xui:noalloc
func (t *Tracer) add(e event) {
	limit := t.MaxEvents
	if limit == 0 {
		limit = DefaultMaxEvents
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		t.dropped++
		return
	}
	if t.stream != nil {
		t.events = append(t.events, e)
		if len(t.events) >= t.stream.chunk {
			t.flushLocked() // cold path: serialisation lives off the recording path
		}
		return
	}
	if len(t.events) >= limit {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
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

// lossEvents returns the metadata event that closes a trace which dropped
// events: "trace_dropped", carrying the count.
func lossEvents(dropped uint64) []event {
	if dropped == 0 {
		return nil
	}
	return []event{{name: "trace_dropped", ph: 'M', args: map[string]any{"count": dropped}}}
}

// Export writes the buffered events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable by Perfetto and chrome://tracing,
// through the streaming encoder: a buffered trace parses to the same
// events as a streamed one. A nil tracer exports an empty (still valid)
// trace. Dropped events are never silent: the export ends with a
// "trace_dropped" metadata event carrying the count, in addition to
// otherData.droppedEvents. Streaming tracers are
// exported by Close, not Export (the events already went to their writer).
func (t *Tracer) Export(w io.Writer) error {
	b := []byte(streamPrologue)
	var other struct {
		Dropped uint64 `json:"droppedEvents,omitempty"`
	}
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.stream != nil {
			return fmt.Errorf("obs: Export on a streaming tracer; use Close to finalise the stream")
		}
		// The clipped capacity keeps append off the buffer's spare room.
		for i, e := range append(t.events[:len(t.events):len(t.events)], lossEvents(t.dropped)...) {
			b = appendElem(b, e, i == 0)
		}
		other.Dropped = t.dropped
	}
	b = append(b, "\n]"...)
	if other.Dropped > 0 {
		raw, err := json.Marshal(other)
		if err != nil {
			return err
		}
		b = append(b, `,"otherData":`...)
		b = append(b, raw...)
	}
	_, err := w.Write(append(b, "}\n"...))
	return err
}

// ExportFile writes the trace to path.
func (t *Tracer) ExportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: exporting trace to %s: %w", path, err)
	}
	return f.Close()
}

// Context bundles a tracer and a registry, either of which may be nil. It
// is the single handle instrumented components hold; a nil *Context (or a
// Context with both fields nil) disables observability entirely.
type Context struct {
	Trace   *Tracer
	Metrics *Registry
}

// NewContext returns a context with a fresh tracer and registry.
func NewContext() *Context {
	return &Context{Trace: NewTracer(), Metrics: NewRegistry()}
}

// Tracer returns the context's tracer, nil when ctx is nil.
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

// ExportFiles writes the context's trace and metrics snapshot to the given
// paths; an empty path skips that export. A streaming tracer is finalised
// with Close instead (its events already went to the stream), and any
// event loss is published as the "obs/dropped" counter before the metrics
// snapshot is taken. A nil context is a no-op.
func (c *Context) ExportFiles(tracePath, metricsPath string) error {
	if c == nil {
		return nil
	}
	if d := c.Trace.Dropped(); d > 0 {
		c.Metrics.Add("obs/dropped", d)
	}
	if c.Trace.Streaming() {
		if err := c.Trace.Close(); err != nil {
			return err
		}
	} else if tracePath != "" {
		if err := c.Trace.ExportFile(tracePath); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := c.Metrics.ExportFile(metricsPath); err != nil {
			return err
		}
	}
	return nil
}
