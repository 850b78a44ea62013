package obs

import (
	"bytes"
	"encoding/json"
	"io"
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
	tr := newStreamTracerChunk(&buf, 2)
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
// containing everything recorded so far, and that later records are
// discarded rather than corrupting the stream.
func TestStreamEarlyClose(t *testing.T) {
	var buf bytes.Buffer
	tr := newStreamTracerChunk(&buf, 64) // all three still buffered at Close
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
	if tr.Events() != 3 {
		t.Errorf("Events() = %d after post-Close records, want 3", tr.Events())
	}
	if got := decodeTrace(t, buf.Bytes()); len(got) != 3 {
		t.Errorf("early-closed trace decoded to %d events, want 3", len(got))
	}
}

// TestStreamFlushIncremental asserts an explicit flush pushes buffered events
// out before the chunk fills, and that the stream stays append-only.
func TestStreamFlushIncremental(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreamTracer(&buf) // default chunk, far larger than 2 events
	tr.Instant(1, 0, "a", "", 0, nil)
	tr.Instant(1, 0, "b", "", 2000, nil)
	if buf.Len() != 0 {
		t.Fatal("events flushed before flush was called")
	}
	if err := tr.flush(); err != nil {
		t.Fatal(err)
	}
	afterFlush := buf.Len()
	if afterFlush == 0 {
		t.Fatal("flush wrote nothing")
	}
	if tr.Events() != 2 {
		t.Errorf("Events() = %d, want 2", tr.Events())
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

// TestStreamNoLossAtScale records ~21M events — over 5000 chunks — and
// asserts every one reaches the stream while resident event memory stays
// bounded by the chunk size.
func TestStreamNoLossAtScale(t *testing.T) {
	const total = 10 << 21
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
	if tr.Events() != total {
		t.Errorf("Events() = %d, want %d", tr.Events(), total)
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
