package trace

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"xui/internal/isa"
)

// matchLive checks the tape behind stream against a live generator for
// n ops: the tape's decoded op i, as the engine reads it (with the
// safepoint prefix a view derives, see isa.DecodedTape.SafepointAt),
// must equal Decode of the generator's op i, and the stream's Next must
// return Lift of that decoded op.
func matchLive(t *testing.T, label string, stream, live isa.Stream, n int) {
	t.Helper()
	ts, ok := stream.(*isa.TapeStream)
	if !ok {
		t.Fatalf("%s: got %T, want a tape stream", label, stream)
	}
	d := ts.Tape().Decoded()
	if len(d.Ops) < n {
		t.Fatalf("%s: tape holds %d ops, want at least %d", label, len(d.Ops), n)
	}
	for i := 0; i < n; i++ {
		m, okL := live.Next()
		got, okT := ts.Next()
		if !okT || !okL {
			t.Fatalf("%s: stream ended at op %d (tape ok=%v, live ok=%v)", label, i, okT, okL)
		}
		u := d.Ops[i]
		if d.SafepointAt(uint64(i)) {
			u.Flags |= isa.FSafepoint
		}
		if want := isa.Decode(m); u != want {
			t.Fatalf("%s: op %d differs: tape %+v, live %+v", label, i, u, want)
		}
		if want := isa.Lift(u); got != want {
			t.Fatalf("%s: Next at op %d = %+v, want Lift %+v", label, i, got, want)
		}
	}
}

// TestTapeMatchesGenerator checks a recorded tape replays exactly the
// ops the live generator produces — the property that lets every
// experiment switch to tapes without changing a single result.
func TestTapeMatchesGenerator(t *testing.T) {
	for _, name := range []string{"fib", "linpack", "memops", "matmul", "base64"} {
		ts := new(TapeSet)
		const budget = 5000
		matchLive(t, name, ts.Recorded(name, 1, budget), ByName(name, 1), budget+TapeSlack)
	}
}

// TestRecordedGrowth checks growing a tape re-records from the seed so
// the old contents stay an exact prefix, and that a sufficient tape is
// replayed, not re-recorded.
func TestRecordedGrowth(t *testing.T) {
	ts := new(TapeSet)
	short := ts.Recorded("fib", 1, 1000)
	if got := ts.Stats(); got.Recordings != 1 {
		t.Fatalf("after first Recorded: %d recordings, want 1", got.Recordings)
	}
	long := ts.Recorded("fib", 1, 20000)
	if got := ts.Stats(); got.Recordings != 2 {
		t.Fatalf("after growth: %d recordings, want 2", got.Recordings)
	}
	// The grown tape must replay the live generator across the old end,
	// and the old tape must be unchanged by the growth.
	matchLive(t, "grown", long, ByName("fib", 1), 20000+TapeSlack)
	matchLive(t, "short", short, ByName("fib", 1), 1000+TapeSlack)
	ts.Recorded("fib", 1, 15000) // fits: replay, no re-record
	s := ts.Stats()
	if s.Recordings != 2 || s.Replays != 1 {
		t.Errorf("stats = %+v, want 2 recordings / 1 replay", s)
	}
	if want := uint64(quantizeTapeLen(20000 + TapeSlack)); s.Tapes != 1 || s.Ops != want {
		t.Errorf("stats = %+v, want 1 tape of %d ops", s, want)
	}
}

// TestDerivedTapesMatchGenerators checks the poll- and safepoint-
// instrumented streams — which derive from the shared base recording by
// interleave/annotation instead of re-running the instrumented
// generator — replay exactly what the live instrumented generator
// produces, across a density sweep and through a longer poll run that
// reuses (and grows) the released buffer of a shorter one.
func TestDerivedTapesMatchGenerators(t *testing.T) {
	for _, every := range []int{1, 2, 7, 25, 100} {
		ts := new(TapeSet)
		const inner = 3000
		label := fmt.Sprintf("poll every=%d", every)
		poll, release := ts.RecordedPoll("matmul", 3, inner, every, 0xF0)
		matchLive(t, label, poll,
			NewPollInstrumented(ByName("matmul", 3), every, 0xF0), inner+inner/every*2+TapeSlack)
		release()
		poll, release = ts.RecordedPoll("matmul", 3, 2*inner, every, 0xF0)
		matchLive(t, label+" grown", poll,
			NewPollInstrumented(ByName("matmul", 3), every, 0xF0), 2*inner)
		release()

		matchLive(t, fmt.Sprintf("safepoint every=%d", every), ts.RecordedSafepoint("fib", 5, inner, every),
			NewSafepointAnnotated(ByName("fib", 5), every), inner+TapeSlack)
	}
}

// TestDerivedStreamsNotRegistered checks the set holds generator
// recordings only: a safepoint stream shares its base tape's arrays, a
// poll stream is exactly the run's length in a buffer the set lends to
// one run at a time (two live poll streams never share one) and takes
// back on release, and neither adds an entry to the set.
func TestDerivedStreamsNotRegistered(t *testing.T) {
	ts := new(TapeSet)
	const inner = 20000
	base := ts.Recorded("matmul", 1, inner).(*isa.TapeStream).Tape().Decoded()
	for _, every := range []int{5, 25, 100} {
		sp := ts.RecordedSafepoint("matmul", 1, inner, every).(*isa.TapeStream).Tape().Decoded()
		if &sp.Ops[0] != &base.Ops[0] || &sp.Blocks[0] != &base.Blocks[0] || sp.SafepointEvery != every {
			t.Errorf("safepoint every=%d: not a view of the base tape (every %d)", every, sp.SafepointEvery)
		}
	}
	a, releaseA := ts.RecordedPoll("matmul", 1, inner, 4, 0xF0)
	b, releaseB := ts.RecordedPoll("matmul", 1, inner, 25, 0xF0)
	da, db := a.(*isa.TapeStream).Tape().Decoded(), b.(*isa.TapeStream).Tape().Decoded()
	if want := inner + inner/4*2 + TapeSlack; len(da.Ops) != want {
		t.Errorf("poll every=4 holds %d ops, want exactly %d", len(da.Ops), want)
	}
	if &da.Ops[0] == &db.Ops[0] {
		t.Error("two live poll streams share one buffer")
	}
	releaseA()
	c, releaseC := ts.RecordedPoll("matmul", 1, inner, 10, 0xF0)
	if dc := c.(*isa.TapeStream).Tape().Decoded(); &dc.Ops[0] != &da.Ops[0] {
		t.Error("a poll stream did not reuse the released buffer")
	}
	releaseB()
	releaseC()
	if s := ts.Stats(); s.Tapes != 1 || s.Ops != uint64(len(base.Ops)) {
		t.Errorf("stats = %+v, want only the base recording of %d ops", s, len(base.Ops))
	}
	for k := range ts.m {
		if k != (tapeKey{"matmul", 1}) {
			t.Errorf("set holds a derived entry %v", k)
		}
	}
}

// TestTapeStatsBytes checks TapeStats.Bytes against known recordings:
// each resident tape is charged 24 bytes per decoded op plus 12 per
// basic block, and nothing else. Safepoint views and poll streams are
// not tapes of the set: a view is charged nothing (its arrays are the
// base tape's), and RecordedPoll only adds its base recording.
func TestTapeStatsBytes(t *testing.T) {
	ts := new(TapeSet)
	const uopBytes, blockBytes = 24, 12
	if unsafe.Sizeof(isa.UOp{}) != uopBytes || unsafe.Sizeof(isa.Block{}) != blockBytes {
		t.Fatalf("sizeof(UOp, Block) = %d, %d; want %d, %d",
			unsafe.Sizeof(isa.UOp{}), unsafe.Sizeof(isa.Block{}), uopBytes, blockBytes)
	}
	ts.RecordedSafepoint("fib", 1, 1000, 4)
	_, release := ts.RecordedPoll("linpack", 2, 1000, 10, 0xF0)
	release()
	var wantOps, wantBytes uint64
	// RecordedSafepoint recorded fib's base tape and RecordedPoll
	// linpack's; a zero budget replays each.
	for _, s := range []isa.Stream{
		ts.Recorded("fib", 1, 0),
		ts.Recorded("linpack", 2, 0),
	} {
		d := s.(*isa.TapeStream).Tape().Decoded()
		if cap(d.Ops) != len(d.Ops) || cap(d.Blocks) != len(d.Blocks) {
			t.Fatalf("%s: arrays carry slack: ops %d/%d, blocks %d/%d",
				d.Name, len(d.Ops), cap(d.Ops), len(d.Blocks), cap(d.Blocks))
		}
		wantOps += uint64(len(d.Ops))
		wantBytes += uint64(len(d.Ops))*uopBytes + uint64(len(d.Blocks))*blockBytes
	}

	got := ts.Stats()
	if got.Tapes != 2 || got.Ops != wantOps || got.Bytes != wantBytes {
		t.Fatalf("stats = %+v, want 2 tapes, %d ops, %d bytes", got, wantOps, wantBytes)
	}
}

// TestTapeRetainedBytesPerOp pins what a recorded tape keeps alive: its
// decoded ops (24 bytes each) and block partition, and no second copy
// of the ops in MicroOp form. fib is the block-densest workload (about
// one block per four ops, ~3 bytes per op).
func TestTapeRetainedBytesPerOp(t *testing.T) {
	ts := new(TapeSet)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := ts.Recorded("fib", 1, 1<<20).(*isa.TapeStream)
	n := s.Tape().Decoded() // the engine's view of the tape
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	const slack = 4 // bytes per op: blocks, set and generator state
	perOp := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(n.Ops))
	if max := float64(unsafe.Sizeof(isa.UOp{}) + slack); perOp > max {
		t.Fatalf("a %d-op tape retains %.1f bytes per op, want at most %.0f", len(n.Ops), perOp, max)
	}
}

// TestTapesDoesNotWaitOnRecording checks a recording in progress blocks
// neither the stats snapshot nor recordings of other keys: Stats and
// Recorded on another key must return while a generator is stuck
// mid-Fill.
func TestTapesDoesNotWaitOnRecording(t *testing.T) {
	ts := new(TapeSet)
	g := &stuckGen{entered: make(chan struct{}), release: make(chan struct{})}
	recorded := make(chan struct{})
	go func() {
		ts.RecordedStream("stuck", 100, func() isa.Stream { return g })
		close(recorded)
	}()
	<-g.entered
	done := make(chan TapeStats)
	go func() {
		s := ts.Stats()
		ts.Recorded("fib", 1, 100)
		done <- s
	}()
	select {
	case s := <-done:
		if s.Tapes != 1 || s.Ops != 0 {
			t.Errorf("stats during recording = %+v, want 1 entry and no published ops", s)
		}
	case <-time.After(10 * time.Second):
		close(g.release) // unwind the stuck recording
		t.Fatal("Stats or Recorded blocked behind another key's recording")
	}
	close(g.release)
	<-recorded
	if s := ts.Stats(); s.Tapes != 2 || s.Recordings != 2 {
		t.Errorf("stats after recording = %+v, want 2 tapes / 2 recordings", s)
	}
}

// TestTapeTotals checks the process view over sets: recordings and
// replays accumulate across sets, and the resident figures cover at
// least the largest set seen.
func TestTapeTotals(t *testing.T) {
	before := TapeTotals()
	small, large := new(TapeSet), new(TapeSet)
	small.Recorded("fib", 1, 1000)
	small.Recorded("fib", 1, 1000)
	large.Recorded("linpack", 1, 1<<18)
	after := TapeTotals()
	if d := after.Recordings - before.Recordings; d != 2 {
		t.Errorf("recordings grew by %d over two sets, want 2", d)
	}
	if d := after.Replays - before.Replays; d != 1 {
		t.Errorf("replays grew by %d, want 1", d)
	}
	if l := large.Stats(); after.Bytes < l.Bytes {
		t.Errorf("totals = %+v, want at least the largest set's %d bytes", after, l.Bytes)
	}
}

// stuckGen is a batch-filling generator whose first Fill blocks until
// released.
type stuckGen struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *stuckGen) Name() string              { return "stuck" }
func (g *stuckGen) Next() (isa.MicroOp, bool) { return isa.MicroOp{}, true }
func (g *stuckGen) Fill(dst []isa.MicroOp) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	clear(dst)
}

func TestRecordedUnknownName(t *testing.T) {
	ts := new(TapeSet)
	if s := ts.Recorded("no-such-workload", 1, 100); s != nil {
		t.Fatalf("Recorded(unknown) = %v, want nil", s)
	}
}

// TestTapeStreamAllocFree pins the replay hot path at zero allocations
// per op (mirroring TestScheduleSteadyStateAllocFree in internal/sim):
// once a tape exists, feeding the pipeline costs a cursor walk only.
func TestTapeStreamAllocFree(t *testing.T) {
	ts := new(TapeSet)
	stream, ok := ts.Recorded("linpack", 1, 100000).(*isa.TapeStream)
	if !ok {
		t.Fatal("Recorded did not return a TapeStream")
	}
	var sink isa.MicroOp
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			op, ok := stream.Next()
			if !ok {
				stream.Reset()
				op, _ = stream.Next()
			}
			sink = op
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("TapeStream.Next allocates %.1f objects per 64-op batch, want 0", allocs)
	}
}

// BenchmarkTapeStream measures cursor replay against the live linpack
// generator it replaces; ReportAllocs must show 0 allocs/op.
func BenchmarkTapeStream(b *testing.B) {
	ts := new(TapeSet)
	stream := ts.Recorded("linpack", 1, 100000).(*isa.TapeStream)
	b.ReportAllocs()
	b.ResetTimer()
	var sink isa.MicroOp
	for i := 0; i < b.N; i++ {
		op, ok := stream.Next()
		if !ok {
			stream.Reset()
			op, _ = stream.Next()
		}
		sink = op
	}
	_ = sink
}

// BenchmarkGeneratorStream is the before picture: the live weighted-mix
// generator the tape amortizes away.
func BenchmarkGeneratorStream(b *testing.B) {
	g := Linpack(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink isa.MicroOp
	for i := 0; i < b.N; i++ {
		sink, _ = g.Next()
	}
	_ = sink
}
