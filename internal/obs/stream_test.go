package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

// decodeTrace parses a Chrome-trace document and returns its event list.
func decodeTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("stream output is not valid JSON: %v\n%s", err, raw)
	}
	return doc.TraceEvents
}

// TestStreamGolden pins the exact bytes of a small streamed trace spanning a
// chunk boundary (chunk=2, three events: the first two flush mid-run, the
// third is flushed by Close).
func TestStreamGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracerChunk(&buf, 2)
	tr.NameProcess(1, "tier1")
	tr.Span(1, 0, "work", "cat", 2000, 4000, nil)
	if buf.Len() == 0 {
		t.Fatal("chunk boundary did not trigger a flush")
	}
	tr.Instant(1, 2, "hit", "", 3000, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"tier1"}},
{"name":"work","cat":"cat","ph":"X","ts":1,"dur":1,"pid":1,"tid":0},
{"name":"hit","ph":"i","ts":1.5,"pid":1,"tid":2,"s":"t"}
]}
`
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\ngot:  %q\nwant: %q", got, want)
	}
	if len(decodeTrace(t, buf.Bytes())) != 3 {
		t.Error("decoded event count != 3")
	}
}

// TestStreamEmptyTrace asserts a Close with no recorded events still yields
// a complete, valid document.
func TestStreamEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := decodeTrace(t, buf.Bytes()); len(got) != 0 {
		t.Errorf("empty trace decoded to %d events", len(got))
	}
}

// TestStreamEarlyClose asserts Close mid-capture seals a valid document
// containing everything recorded so far, and that later records are counted
// as dropped rather than corrupting the stream.
func TestStreamEarlyClose(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracerChunk(&buf, 64) // all three still buffered at Close
	for i := 0; i < 3; i++ {
		tr.Instant(1, 0, "e", "", uint64(i)*2000, nil)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := buf.String()
	tr.Instant(1, 0, "late", "", 9000, nil)
	tr.Span(1, 0, "later", "", 9000, 9500, nil)
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if buf.String() != sealed {
		t.Error("records after Close mutated the sealed stream")
	}
	if tr.Dropped() != 2 {
		t.Errorf("post-Close records dropped = %d, want 2", tr.Dropped())
	}
	if got := decodeTrace(t, buf.Bytes()); len(got) != 3 {
		t.Errorf("early-closed trace decoded to %d events, want 3", len(got))
	}
}

// TestStreamFlushIncremental asserts explicit Flush pushes buffered events
// out before the chunk fills, and that the stream stays append-only.
func TestStreamFlushIncremental(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracer(&buf) // default chunk, far larger than 2 events
	tr.Instant(1, 0, "a", "", 0, nil)
	tr.Instant(1, 0, "b", "", 2000, nil)
	if buf.Len() != 0 {
		t.Fatal("events flushed before Flush was called")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	afterFlush := buf.Len()
	if afterFlush == 0 {
		t.Fatal("Flush wrote nothing")
	}
	if tr.Streamed() != 2 {
		t.Errorf("Streamed() = %d, want 2", tr.Streamed())
	}
	tr.Instant(1, 0, "c", "", 4000, nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), buf.String()[:afterFlush]) {
		t.Error("Close rewrote earlier stream bytes")
	}
	if got := decodeTrace(t, buf.Bytes()); len(got) != 3 {
		t.Errorf("decoded %d events, want 3", len(got))
	}
}

// countingWriter tallies bytes and newlines without retaining data, so the
// at-scale test below measures loss and memory, not buffer growth.
type countingWriter struct {
	bytes    uint64
	newlines uint64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += uint64(len(p))
	for _, c := range p {
		if c == '\n' {
			w.newlines++
		}
	}
	return len(p), nil
}

// TestStreamNoLossAtScale records 10× DefaultMaxEvents events — far beyond
// what buffered mode retains — and asserts every one reaches the stream
// while resident event memory stays bounded by the chunk size. This is the
// acceptance test for incremental flushing replacing drop-after-cap.
func TestStreamNoLossAtScale(t *testing.T) {
	const total = 10 * DefaultMaxEvents
	var w countingWriter
	tr := NewStreamTracer(&w)
	for i := 0; i < total; i++ {
		tr.Instant(1, 0, "e", "", uint64(i), nil)
	}
	if got := cap(tr.events); got > DefaultStreamChunk {
		t.Errorf("resident event buffer grew to %d, cap is %d", got, DefaultStreamChunk)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Errorf("streaming dropped %d events", tr.Dropped())
	}
	if tr.Streamed() != total {
		t.Errorf("Streamed() = %d, want %d", tr.Streamed(), total)
	}
	// One newline precedes each event; the trailer "\n]}\n" adds two more.
	if w.newlines != total+2 {
		t.Errorf("stream newlines = %d, want %d (one per event + trailer)", w.newlines, total+2)
	}
}

// TestStreamEscapedNames exercises the encoder's json.Marshal fallback for
// names that need escaping.
func TestStreamEscapedNames(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracer(&buf)
	tr.Instant(1, 0, `quote"back\slash`, "π-cat", 0, map[string]any{"k": "v"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())
	if len(events) != 1 || events[0]["name"] != `quote"back\slash` || events[0]["cat"] != "π-cat" {
		t.Errorf("escaped round-trip failed: %+v", events)
	}
}

// recordSample records one event of every phase, with args and with names
// that need escaping.
func recordSample(tr *Tracer) {
	tr.NameProcess(1, "tier1")
	tr.NameThread(1, 0, "core0")
	tr.Span(1, 0, "delivery", "interrupt", 2000, 2400, map[string]any{"k": 1, "s": "v"})
	tr.Span(2, 3, "widened", "", 500, 500, nil)
	tr.Instant(1, 0, `quote"back\slash`, "π-cat", 3000, nil)
	tr.Counter(2, "pending", 4001, 3.5)
}

// exportDoc exports a buffered tracer and parses the document.
func exportDoc(t *testing.T, tr *Tracer) (events []map[string]any, other map[string]uint64) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]uint64 `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return doc.TraceEvents, doc.OtherData
}

// TestExportMatchesStream: buffered export and a streaming tracer
// serialise the same recorded events through one encoder, so their
// traceEvents arrays parse equal; a lossy export stays valid JSON and
// carries its count.
func TestExportMatchesStream(t *testing.T) {
	var buf bytes.Buffer
	streamed := NewStreamTracerChunk(&buf, 2)
	recordSample(streamed)
	if err := streamed.Close(); err != nil {
		t.Fatal(err)
	}
	want := decodeTrace(t, buf.Bytes())
	if len(want) != 6 {
		t.Fatalf("streamed %d events, want 6", len(want))
	}

	buffered := NewTracer()
	recordSample(buffered)
	got, other := exportDoc(t, buffered)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buffered export differs from the stream:\n%v\nvs\n%v", got, want)
	}
	if other != nil {
		t.Errorf("buffered export reports loss %v", other)
	}

	dropped := &Tracer{MaxEvents: 4}
	recordSample(dropped)
	got, other = exportDoc(t, dropped)
	if !reflect.DeepEqual(got[:4], want[:4]) || got[4]["name"] != "trace_dropped" || other["droppedEvents"] != 2 {
		t.Errorf("dropped export: %v otherData=%v", got, other)
	}
}

// TestExportOnStreamingTracer pins the guard: buffered Export is not valid
// on a streaming tracer.
func TestExportOnStreamingTracer(t *testing.T) {
	tr := NewStreamTracer(io.Discard)
	if err := tr.Export(io.Discard); err == nil {
		t.Error("Export on streaming tracer should fail")
	}
}

// BenchmarkStreamInstant guards the allocation budget of the streaming
// record path: the chunk buffer and serialisation buffer are reused, so
// recording amortises to zero allocations per event.
func BenchmarkStreamInstant(b *testing.B) {
	tr := NewStreamTracer(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant(1, 0, "e", "intr", uint64(i), nil)
	}
}
