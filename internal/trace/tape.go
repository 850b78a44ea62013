package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"xui/internal/isa"
)

// Recorded tapes: a TapeSet generates each named (workload, seed)
// synthetic stream once into an immutable isa.Tape and replays it by
// cursor everywhere else, so the per-op RNG draws and weight
// comparisons in synth.Next are paid once per set instead of once per
// run. A set belongs to one run environment (experiments.Env) and is
// dropped when its job ends: nearly all reuse is inside one
// experiment, so freeing a job's tapes with it costs little time and
// keeps a long-lived process from holding every tape it ever recorded.
// Instrumented variants of a recording are not tapes of their own: a
// safepoint-annotated stream is a view that shares the base tape's
// arrays and derives the prefix from the op's position, and a
// poll-instrumented stream is interleaved per run into a buffer the
// set reuses (RecordedSafepoint, RecordedPoll).
// A tape stores only decoded ops (isa.UOp): recording decodes each
// generated chunk straight into the tape's array. Growth keeps the live
// generator: when a longer recording is needed, only the new suffix is
// generated and decoded, and the existing decoded prefix is copied into
// a fresh backing array (generators are deterministic in their seed, so
// the grown tape has every shorter one as an exact prefix and live
// replayers over the old array never observe a change). A caller that
// wants the live generators instead (the uncached reference path of
// experiments.Env) builds them directly.

// TapeSlack is how far past the commit budget a tape extends. The
// front end runs ahead of commit by at most the ROB (384) plus one
// fetch group, and replay after a squash re-reads the core's own
// window buffer, never the stream — so a comfortable 4096 ops of
// slack guarantees a budgeted run can never fall off the tape's end.
const TapeSlack = 4096

type tapeKey struct {
	name string
	seed uint64
}

// tapeEntry serializes recording per (name, seed) while letting
// distinct workloads record concurrently. The generator is retained so
// growth generates only the missing suffix. tape is written only with
// mu held but published atomically, so Stats can read it without
// waiting on a recording in progress.
type tapeEntry struct {
	mu   sync.Mutex
	tape atomic.Pointer[isa.Tape]
	gen  isa.Stream
}

// TapeSet is a set of recorded tapes keyed by (name, seed). Recording
// is single-flight per key, so concurrent sweep workers share one
// recording and its growth. It holds generator recordings only: a
// safepoint stream is a view of its base tape, and a poll stream lives
// in a buffer the set lends one run at a time (RecordedPoll). The zero
// TapeSet is empty and ready to use; it must not be copied once used.
type TapeSet struct {
	mu sync.Mutex
	m  map[tapeKey]*tapeEntry

	pollMu   sync.Mutex
	pollFree []*pollBuf //xui:guardedby pollMu

	recordings atomic.Uint64 // generator passes paid (incl. re-records for growth)
	replays    atomic.Uint64 // streams served from an existing tape
}

// TapeStats summarizes recorded tapes for run reports and the obs
// cache/ namespace.
type TapeStats struct {
	Tapes      int    `json:"tapes"`      // distinct (workload, seed) tapes resident
	Ops        uint64 `json:"ops"`        // micro-ops currently recorded
	Bytes      uint64 `json:"bytes"`      // memory held by tape op and block arrays
	Recordings uint64 `json:"recordings"` // generator passes paid
	Replays    uint64 `json:"replays"`    // streams served by cursor replay
}

// tapeTotals accumulates over every TapeSet of the process.
var tapeTotals struct {
	recordings, replays atomic.Uint64

	mu   sync.Mutex
	peak TapeStats //xui:guardedby mu
}

// Stats snapshots the set. It never waits on a recording: it reads
// each entry's published tape, so a tape being recorded or grown counts
// at its previous length.
func (s *TapeSet) Stats() TapeStats {
	s.mu.Lock()
	entries := make([]*tapeEntry, 0, len(s.m))
	for _, e := range s.m {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	st := TapeStats{
		Tapes:      len(entries),
		Recordings: s.recordings.Load(),
		Replays:    s.replays.Load(),
	}
	for _, e := range entries {
		if t := e.tape.Load(); t != nil {
			d := t.Decoded()
			st.Ops += uint64(len(d.Ops))
			st.Bytes += uint64(len(d.Ops))*uint64(unsafe.Sizeof(isa.UOp{})) +
				uint64(len(d.Blocks))*uint64(unsafe.Sizeof(isa.Block{}))
		}
	}
	return st
}

// TapeTotals summarizes every TapeSet the process has used: Recordings
// and Replays are cumulative, and Tapes, Ops and Bytes describe the
// largest set (by bytes) any one of them has held.
func TapeTotals() TapeStats {
	tapeTotals.mu.Lock()
	st := tapeTotals.peak
	tapeTotals.mu.Unlock()
	st.Recordings = tapeTotals.recordings.Load()
	st.Replays = tapeTotals.replays.Load()
	return st
}

// Recorded returns a stream of the named microbenchmark (the ByName
// set) that will deliver at least budget+TapeSlack micro-ops before
// ending: a cursor replayer over the set's tape. It returns nil for
// unknown names, like ByName.
func (s *TapeSet) Recorded(name string, seed, budget uint64) isa.Stream {
	return s.recordedStream(tapeKey{name, seed}, int(budget+TapeSlack),
		func() isa.Stream { return ByName(name, seed) })
}

// RecordedPoll returns a stream of the named microbenchmark wrapped
// with Concord-style poll instrumentation (NewPollInstrumented), and
// the release func its caller must call once, when no core reads the
// stream any more. innerBudget is the budget of *inner* workload ops
// the run will commit; the stream holds exactly that many ops' worth
// of the combined stream (two instrumentation ops per check) plus
// TapeSlack, so the base recording is read only as far as a run can
// fetch. The interleave copies the set's shared base recording of
// (name, seed) — the instrumentation only inserts fixed check ops, so
// the result is element-identical to recording the instrumented
// generator while a density sweep pays the synth generator once — into
// one of the set's poll buffers: a run takes a free buffer, or makes
// one when every buffer is in use, and release hands it back. So a job
// holds one buffer per concurrently running sweep worker, and no poll
// stream is ever registered as a tape. An unknown name returns a nil
// stream and a no-op release.
func (s *TapeSet) RecordedPoll(name string, seed, innerBudget uint64, every int, flagAddr uint64) (isa.Stream, func()) {
	if every < 1 {
		every = 1
	}
	n := int(innerBudget + innerBudget/uint64(every)*2 + TapeSlack)
	// The output repeats every inner ops then two checks; count the
	// inner ops among its first n.
	inner := n/(every+2)*every + min(n%(every+2), every)
	baseT := s.recordedTape(tapeKey{name, seed}, inner,
		func() isa.Stream { return ByName(name, seed) })
	if baseT == nil {
		return nil, func() {}
	}
	base := baseT.Decoded().Ops
	checkLoad := isa.Decode(isa.MicroOp{Class: isa.Load, Addr: flagAddr, Shared: true, BoundaryStart: true})
	checkBr := isa.Decode(isa.MicroOp{Class: isa.Branch, Dep1: 1, BoundaryStart: true})
	b := s.takePollBuf(n)
	// Mirrors PollInstrumented.Next exactly: after every inner ops, a
	// shared-flag load then a dependent branch.
	for k, i := 0, 0; k < n; {
		want := min(every, n-k)
		if copy(b.ops[k:k+want], base[i:]) < want {
			panic("trace: poll stream exhausted its base recording")
		}
		k, i = k+want, i+want
		if k < n {
			b.ops[k] = checkLoad
			k++
		}
		if k < n {
			b.ops[k] = checkBr
			k++
		}
	}
	t := isa.NewScratchTape(fmt.Sprintf("%s+poll%d", name, every), b.ops, b.blocks)
	b.blocks = t.Decoded().Blocks
	return t.Stream(), func() { s.releasePollBuf(b) }
}

// pollBuf is the op and block arrays of one run's poll stream, reused
// by the set's later poll streams once that run releases it.
type pollBuf struct {
	ops    []isa.UOp
	blocks []isa.Block
}

// takePollBuf returns a free poll buffer resliced to n ops, growing it
// if it is too short, or a new one when none is free.
func (s *TapeSet) takePollBuf(n int) *pollBuf {
	s.pollMu.Lock()
	var b *pollBuf
	if k := len(s.pollFree); k > 0 {
		b = s.pollFree[k-1]
		s.pollFree = s.pollFree[:k-1]
	}
	s.pollMu.Unlock()
	if b == nil {
		b = new(pollBuf)
	}
	if cap(b.ops) < n {
		b.ops = make([]isa.UOp, n)
	}
	b.ops = b.ops[:n]
	return b
}

// releasePollBuf hands b back for the set's next poll stream.
func (s *TapeSet) releasePollBuf(b *pollBuf) {
	s.pollMu.Lock()
	s.pollFree = append(s.pollFree, b)
	s.pollMu.Unlock()
}

// RecordedSafepoint is RecordedPoll's analogue for hardware-safepoint
// annotation (NewSafepointAnnotated): one op per inner op, so budget is
// the run's op budget directly. The annotation only sets the prefix on
// every every-th op, so the stream is a view of the shared base
// recording (isa.Tape.SafepointView): it copies nothing, registers
// nothing, and needs no release.
func (s *TapeSet) RecordedSafepoint(name string, seed, budget uint64, every int) isa.Stream {
	baseT := s.recordedTape(tapeKey{name, seed}, int(budget+TapeSlack),
		func() isa.Stream { return ByName(name, seed) })
	if baseT == nil {
		return nil
	}
	return baseT.SafepointView(fmt.Sprintf("%s+sp%d", name, every), every).Stream()
}

// RecordedStream tape-backs an arbitrary deterministic generator under
// an explicit key. key must uniquely identify mk()'s output
// (embed every generator parameter); mk is only called to record or
// grow the tape.
func (s *TapeSet) RecordedStream(key string, budget uint64, mk func() isa.Stream) isa.Stream {
	return s.recordedStream(tapeKey{key, 0}, int(budget+TapeSlack), mk)
}

// batchFiller is an optional Stream extension: fill dst completely, in
// exactly the order the same number of Next calls would produce. It lets
// recording generate a chunk of micro-ops into a reusable buffer with
// one interface call, then decode the chunk into the tape's array.
type batchFiller interface {
	Fill(dst []isa.MicroOp)
}

// fillChunk is the size, in micro-ops, of the reusable buffer a
// batchFiller generates into during recording (192 KiB of MicroOps).
const fillChunk = 4096

// tapeQuantum rounds recording sizes up so repeated requests for
// slightly different lengths — the base a poll sweep's spacings read
// to different depths, plain and annotated runs of one budget — hit
// one recording instead of growing over and over. Growth is not just the
// suffix generation: it copies the whole decoded prefix into a fresh
// array and repartitions it into blocks, which dwarfs the cost of
// recording a few thousand ops nobody replays.
const tapeQuantum = 16384

func quantizeTapeLen(need int) int {
	return (need + tapeQuantum - 1) / tapeQuantum * tapeQuantum
}

// entry interns the set's entry for key.
func (s *TapeSet) entry(key tapeKey) *tapeEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[tapeKey]*tapeEntry)
	}
	e, ok := s.m[key]
	if !ok {
		e = &tapeEntry{}
		s.m[key] = e
	}
	return e
}

// publish installs t as e's tape (e.mu held), counts the recording and
// folds the set's new size into the process peak.
func (s *TapeSet) publish(e *tapeEntry, t *isa.Tape) {
	e.tape.Store(t)
	s.recordings.Add(1)
	tapeTotals.recordings.Add(1)
	st := s.Stats()
	tapeTotals.mu.Lock()
	if st.Bytes > tapeTotals.peak.Bytes {
		tapeTotals.peak = TapeStats{Tapes: st.Tapes, Ops: st.Ops, Bytes: st.Bytes}
	}
	tapeTotals.mu.Unlock()
}

// replayed counts a stream served from an existing tape.
func (s *TapeSet) replayed() {
	s.replays.Add(1)
	tapeTotals.replays.Add(1)
}

// growLocked records or grows the entry (e.mu held) so it holds at least
// need ops, returning false when mkGen produces no generator. The
// already-decoded prefix is copied into a fresh array (the old tape and
// any live replayers keep the old one) and only the suffix is generated
// from the retained generator, decoding as it goes.
func (s *TapeSet) growLocked(e *tapeEntry, key tapeKey, need int, mkGen func() isa.Stream) bool {
	if e.gen == nil {
		e.gen = mkGen()
		if e.gen == nil {
			return false
		}
	}
	grown := make([]isa.UOp, need)
	n0 := 0
	if old := e.tape.Load(); old != nil {
		n0 = copy(grown, old.Decoded().Ops)
	}
	if bf, ok := e.gen.(batchFiller); ok {
		chunk := make([]isa.MicroOp, min(fillChunk, need-n0))
		for i := n0; i < need; i += len(chunk) {
			chunk = chunk[:min(len(chunk), need-i)]
			bf.Fill(chunk)
			for j, m := range chunk {
				grown[i+j] = isa.Decode(m)
			}
		}
	} else {
		for i := n0; i < need; i++ {
			m, _ := e.gen.Next()
			grown[i] = isa.Decode(m)
		}
	}
	s.publish(e, isa.NewDecodedTape(key.name, grown))
	return true
}

// recordedStream returns a replayer over the set's tape for key,
// recording or growing it first (from mkGen's stream) so it holds at
// least need ops.
func (s *TapeSet) recordedStream(key tapeKey, need int, mkGen func() isa.Stream) isa.Stream {
	t := s.recordedTape(key, need, mkGen)
	if t == nil {
		return nil
	}
	return t.Stream()
}

// recordedTape ensures the set's entry for key holds at least need
// recorded ops and returns its tape (immutable once returned: growth
// publishes a fresh Tape), counting a replay when the tape already
// sufficed. Poll streams and safepoint views read its decoded ops
// directly, so the base decode is shared with every plain run.
func (s *TapeSet) recordedTape(key tapeKey, need int, mkGen func() isa.Stream) *isa.Tape {
	need = quantizeTapeLen(need)
	e := s.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.tape.Load(); t == nil || t.Len() < need {
		if !s.growLocked(e, key, need, mkGen) {
			return nil
		}
	} else {
		s.replayed()
	}
	return e.tape.Load()
}
