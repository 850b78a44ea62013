package isa

// Tape is an immutable recorded micro-op sequence. Workload generators
// (internal/trace) are deterministic but pay per-op RNG and weight
// arithmetic on every Next; recording a generator's output once into a
// Tape lets every later run replay the same ops with a cursor walk —
// and lets concurrent sweep workers share one backing array, since
// nothing ever writes it after construction.
//
// A tape stores only its decoded form: the 24-byte UOp array the fast
// pipeline indexes, plus its basic-block partition. Per-op consumers
// (the interpreted pipeline, wrapper streams such as PollInstrumented
// and SafepointAnnotated) read it through TapeStream.Next, which lifts
// each UOp back into a MicroOp by value, so their per-op edits never
// touch the tape and re-decoding what they read yields the same UOps.
type Tape struct {
	dec DecodedTape
}

// NewTape records ops as a tape named name, decoding them eagerly. The
// tape keeps no reference to ops.
func NewTape(name string, ops []MicroOp) *Tape {
	u := make([]UOp, len(ops))
	for i, m := range ops {
		u[i] = Decode(m)
	}
	return NewDecodedTape(name, u)
}

// NewDecodedTape wraps an already-decoded op array as a tape named
// name, taking ownership of the slice; callers must not retain or
// mutate it afterwards. Every element must be Decode of some MicroOp.
func NewDecodedTape(name string, ops []UOp) *Tape {
	return &Tape{dec: DecodedTape{Name: name, Ops: ops, Blocks: buildBlocks(ops)}}
}

// Name identifies the recorded workload.
func (t *Tape) Name() string { return t.dec.Name }

// Len returns the number of recorded micro-ops.
func (t *Tape) Len() int { return len(t.dec.Ops) }

// Decoded returns the tape's execution-ready form, shared by every
// core running the tape. Read-only by contract.
func (t *Tape) Decoded() *DecodedTape { return &t.dec }

// Stream returns a fresh replayer positioned at the start of the tape.
// Streams are independent cursors; any number may be live at once.
func (t *Tape) Stream() *TapeStream {
	return &TapeStream{ops: t.dec.Ops, tape: t}
}

// TapeStream replays a Tape through the Stream interface. Next is a
// bounds check, a lift and an increment — zero allocations in steady
// state, which BenchmarkTapeStream pins.
type TapeStream struct {
	ops  []UOp
	pos  int
	tape *Tape
}

// Name implements Stream.
func (s *TapeStream) Name() string { return s.tape.Name() }

// Tape returns the backing tape, letting a pipeline swap the per-op
// cursor for the tape's decoded random-access form.
func (s *TapeStream) Tape() *Tape { return s.tape }

// Pos returns the cursor position (ops already consumed).
func (s *TapeStream) Pos() int { return s.pos }

// Next implements Stream, returning Lift of the next recorded op. It
// returns ok=false past the end of the tape; callers size tapes so a
// budgeted pipeline run never gets there (see trace.Recorded's slack).
//
//xui:noalloc
func (s *TapeStream) Next() (MicroOp, bool) {
	if s.pos >= len(s.ops) {
		return MicroOp{}, false
	}
	u := s.ops[s.pos]
	s.pos++
	return Lift(u), true
}

// Reset rewinds the stream to the start of the tape.
//
//xui:noalloc
func (s *TapeStream) Reset() { s.pos = 0 }
