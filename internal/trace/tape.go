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
// recording, its growth and its derivations. The zero TapeSet is empty
// and ready to use; it must not be copied once used.
type TapeSet struct {
	mu sync.Mutex
	m  map[tapeKey]*tapeEntry

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
// with Concord-style poll instrumentation (NewPollInstrumented),
// tape-backed like Recorded. innerBudget is the budget of *inner*
// workload ops the run will commit; the tape is sized for the combined
// stream (two instrumentation ops per check). Distinct check spacings
// record distinct tapes — but all of them derive from the one shared
// base recording of (name, seed): the instrumentation only interleaves
// fixed check ops with the unmodified inner stream, so the derived
// array is element-identical to recording the instrumented generator
// while a density sweep pays the synth generator exactly once.
func (s *TapeSet) RecordedPoll(name string, seed, innerBudget uint64, every int, flagAddr uint64) isa.Stream {
	if every < 1 {
		every = 1
	}
	total := innerBudget + innerBudget/uint64(every)*2
	// Quantize upfront: innerNeed must cover the quantized output
	// length derivedStream will actually build.
	need := quantizeTapeLen(int(total + TapeSlack))
	// need output ops consume ~every/(every+2) of them as inner ops;
	// round up with a trailing-partial-group margin.
	innerNeed := need/(every+2)*every + 2*every + 8
	if innerNeed > need {
		innerNeed = need
	}
	baseT := s.recordedTape(tapeKey{name, seed}, innerNeed,
		func() isa.Stream { return ByName(name, seed) })
	if baseT == nil {
		return nil
	}
	base := baseT.Decoded().Ops
	checkLoad := isa.Decode(isa.MicroOp{Class: isa.Load, Addr: flagAddr, Shared: true, BoundaryStart: true})
	checkBr := isa.Decode(isa.MicroOp{Class: isa.Branch, Dep1: 1, BoundaryStart: true})
	return s.derivedStream(tapeKey{fmt.Sprintf("%s+poll%d", name, every), seed}, need,
		func(n int) []isa.UOp {
			out := make([]isa.UOp, 0, n)
			since, i := 0, 0
			for len(out) < n {
				// Mirrors PollInstrumented.Next exactly: after every inner
				// ops, a shared-flag load then a dependent branch.
				if since >= every {
					since = 0
					out = append(out, checkLoad)
					if len(out) < n {
						out = append(out, checkBr)
					}
					continue
				}
				if i >= len(base) {
					panic("trace: derived poll tape exhausted its base recording")
				}
				out = append(out, base[i])
				i++
				since++
			}
			return out
		})
}

// RecordedSafepoint is RecordedPoll's analogue for hardware-safepoint
// annotation (NewSafepointAnnotated): one op per inner op, so budget is
// the run's op budget directly. Like RecordedPoll it derives from the
// shared base recording — the annotation sets a flag on every
// markEvery-th op and changes nothing else.
func (s *TapeSet) RecordedSafepoint(name string, seed, budget uint64, every int) isa.Stream {
	if every < 1 {
		every = 1
	}
	need := quantizeTapeLen(int(budget + TapeSlack))
	baseT := s.recordedTape(tapeKey{name, seed}, need,
		func() isa.Stream { return ByName(name, seed) })
	if baseT == nil {
		return nil
	}
	base := baseT.Decoded().Ops
	return s.derivedStream(tapeKey{fmt.Sprintf("%s+sp%d", name, every), seed}, need,
		func(n int) []isa.UOp {
			out := append([]isa.UOp(nil), base[:n]...)
			for i := every - 1; i < n; i += every {
				out[i].Flags |= isa.FSafepoint
			}
			return out
		})
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
// slightly different lengths — a density sweep's varying combined
// budgets, the shared base under different derivations — hit one
// recording instead of growing over and over. Growth is not just the
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
	return e.tape.Load().Stream()
}

// recordedTape ensures the set's entry for key holds at least need
// recorded ops and returns its tape (immutable once returned: growth
// publishes a fresh Tape). Derivations read its decoded ops directly,
// so the base decode is shared with every plain run.
func (s *TapeSet) recordedTape(key tapeKey, need int, mkGen func() isa.Stream) *isa.Tape {
	need = quantizeTapeLen(need)
	e := s.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.tape.Load(); t == nil || t.Len() < need {
		if !s.growLocked(e, key, need, mkGen) {
			return nil
		}
	}
	return e.tape.Load()
}

// derivedStream returns a replayer over a tape computed by build — a
// pure function of already-recorded decoded ops (build(n) must be a
// prefix of build(m) for n < m, which any deterministic derivation
// satisfies). Derived entries keep no generator: growth rebuilds from
// scratch, since derivation runs at memcpy speed.
func (s *TapeSet) derivedStream(key tapeKey, need int, build func(n int) []isa.UOp) isa.Stream {
	need = quantizeTapeLen(need)
	e := s.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.tape.Load(); t == nil || t.Len() < need {
		s.publish(e, isa.NewDecodedTape(key.name, build(need)))
	} else {
		s.replayed()
	}
	return e.tape.Load().Stream()
}
