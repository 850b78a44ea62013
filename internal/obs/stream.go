package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
)

// DefaultStreamChunk is the number of events a streaming tracer buffers
// before serialising them to the underlying writer: resident event memory
// is bounded by this count regardless of how many events a run records.
const DefaultStreamChunk = 4096

// streamState is a tracer's chunked Chrome-trace JSON writer. The
// document is {"displayTimeUnit":"ns","traceEvents":[ e, e, ... ]} with
// the prologue written on the first flush and the trailer written by
// Close — so a capture terminated early by Close is still a complete,
// valid JSON document containing everything recorded up to that point.
type streamState struct {
	w       io.Writer
	closer  io.Closer // non-nil when the tracer owns the writer (StreamFile)
	chunk   int       // events buffered before a flush
	buf     []byte    // reusable serialisation buffer
	started bool      // prologue written
	err     error     // first write error; sticky
}

// NewStreamTracer returns a root tracer: events are serialised to w in
// chunks of DefaultStreamChunk as they are recorded, so resident memory
// stays bounded no matter how long the capture runs. Call Close to
// finalise the JSON document.
func NewStreamTracer(w io.Writer) *Tracer { return newStreamTracerChunk(w, DefaultStreamChunk) }

// newStreamTracerChunk is NewStreamTracer with an explicit chunk size
// (events buffered between flushes).
func newStreamTracerChunk(w io.Writer, n int) *Tracer {
	return &Tracer{
		events: make([]event, 0, n),
		stream: &streamState{w: w, chunk: n},
	}
}

// StreamFile opens path and returns a streaming tracer writing to it; the
// tracer owns the file and Close closes it.
func StreamFile(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewStreamTracer(f)
	t.stream.closer = f
	return t, nil
}

// flush serialises any buffered events to the stream. It is a no-op on
// nil or already-closed tracers.
func (t *Tracer) flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.flushLocked()
	return t.stream.err
}

// Close flushes buffered events, writes the document trailer and closes
// the writer if the tracer owns it. The resulting output is a complete,
// valid Chrome-trace JSON document even when the capture is terminated
// before the run finished. Close is idempotent; events recorded after
// Close are discarded. On a nil tracer Close is a no-op.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.flushLocked()
	s := t.stream
	if s.err == nil && !s.started {
		s.write(streamPrologue)
	}
	if s.err == nil {
		s.write("\n]}\n")
	}
	t.closed = true
	err := s.err
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

const streamPrologue = `{"displayTimeUnit":"ns","traceEvents":[`

// write appends raw bytes to the stream, latching the first error.
func (s *streamState) write(raw string) {
	if s.err != nil {
		return
	}
	_, s.err = io.WriteString(s.w, raw)
}

// flushLocked serialises the buffered chunk and resets it. Caller holds
// t.mu. All allocation in the streaming path happens here (and amortises
// to zero: the buffer is reused), keeping Tracer.add allocation-free.
func (t *Tracer) flushLocked() {
	s := t.stream
	if len(t.events) == 0 { //xui:lockok flushLocked runs with t.mu held (Locked suffix convention)
		return
	}
	if s.err != nil {
		t.events = t.events[:0] //xui:lockok caller holds t.mu
		return
	}
	first := !s.started
	if first {
		s.write(streamPrologue)
		s.started = true
	}
	s.buf = s.buf[:0]
	for i, e := range t.events { //xui:lockok caller holds t.mu
		s.buf = appendElem(s.buf, e, first && i == 0)
	}
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	t.events = t.events[:0] //xui:lockok caller holds t.mu
}

// appendElem appends e as the next element of the traceEvents array, one
// event per line; first marks the array's first element.
func appendElem(b []byte, e event, first bool) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '\n')
	return appendEvent(b, e)
}

// appendEvent serialises one event as a Chrome trace-event JSON object.
// The encoding is hand-rolled so chunk flushing stays cheap and
// deterministic; args maps go through encoding/json, which sorts keys.
func appendEvent(b []byte, e event) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, e.name)
	if e.cat != "" {
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, e.cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, e.ph)
	b = append(b, `","ts":`...)
	if e.ph == 'M' {
		b = append(b, '0')
	} else {
		b = strconv.AppendFloat(b, cyclesToUs(e.startCy), 'f', -1, 64)
	}
	if e.ph == 'X' {
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, cyclesToUs(e.endCy-e.startCy), 'f', -1, 64)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendUint(b, uint64(e.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendUint(b, uint64(e.tid), 10)
	if e.ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	if e.args != nil {
		if raw, err := json.Marshal(e.args); err == nil {
			b = append(b, `,"args":`...)
			b = append(b, raw...)
		}
	}
	return append(b, '}')
}

// appendJSONString quotes s as a JSON string. Event names and categories
// are plain ASCII identifiers in practice, encoded with a fast path;
// anything needing escapes falls back to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			raw, err := json.Marshal(s) //xui:alloc cold fallback for names needing escapes; the ASCII fast path below never allocates
			if err != nil {
				return append(b, `""`...)
			}
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
