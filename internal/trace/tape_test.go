package trace

import (
	"testing"

	"xui/internal/isa"
)

// TestTapeMatchesGenerator checks a recorded tape replays exactly the
// ops the live generator produces — the property that lets every
// experiment switch to tapes without changing a single result.
func TestTapeMatchesGenerator(t *testing.T) {
	defer ResetTapes()
	for _, name := range []string{"fib", "linpack", "memops", "matmul", "base64"} {
		ResetTapes()
		const budget = 5000
		tape := Recorded(name, 1, budget)
		live := ByName(name, 1)
		for i := 0; i < budget+TapeSlack; i++ {
			got, okT := tape.Next()
			want, okL := live.Next()
			if !okT || !okL {
				t.Fatalf("%s: stream ended at op %d (tape ok=%v, live ok=%v)", name, i, okT, okL)
			}
			if got != want {
				t.Fatalf("%s: op %d differs: tape %+v, live %+v", name, i, got, want)
			}
		}
	}
}

// TestRecordedGrowth checks growing a tape re-records from the seed so
// the old contents stay an exact prefix, and that a sufficient tape is
// replayed, not re-recorded.
func TestRecordedGrowth(t *testing.T) {
	defer ResetTapes()
	ResetTapes()
	short := Recorded("fib", 1, 1000)
	if got := Tapes(); got.Recordings != 1 {
		t.Fatalf("after first Recorded: %d recordings, want 1", got.Recordings)
	}
	long := Recorded("fib", 1, 20000)
	if got := Tapes(); got.Recordings != 2 {
		t.Fatalf("after growth: %d recordings, want 2", got.Recordings)
	}
	for i := 0; i < 1000+TapeSlack; i++ {
		a, _ := short.Next()
		b, _ := long.Next()
		if a != b {
			t.Fatalf("op %d changed across growth: %+v vs %+v", i, a, b)
		}
	}
	Recorded("fib", 1, 15000) // fits: replay, no re-record
	s := Tapes()
	if s.Recordings != 2 || s.Replays != 1 {
		t.Errorf("stats = %+v, want 2 recordings / 1 replay", s)
	}
	if want := uint64(quantizeTapeLen(20000 + TapeSlack)); s.Tapes != 1 || s.Ops != want {
		t.Errorf("stats = %+v, want 1 tape of %d ops", s, want)
	}
}

// TestDerivedTapesMatchGenerators checks the poll- and safepoint-
// instrumented tapes — which derive from the shared base recording by
// interleave/annotation instead of re-running the instrumented
// generator — replay exactly what the live instrumented generator
// produces, across a density sweep and through growth.
func TestDerivedTapesMatchGenerators(t *testing.T) {
	defer ResetTapes()
	for _, every := range []int{1, 2, 7, 25, 100} {
		ResetTapes()
		const inner = 3000
		tape := RecordedPoll("matmul", 3, inner, every, 0xF0)
		live := NewPollInstrumented(ByName("matmul", 3), every, 0xF0)
		n := inner + inner/every*2 + TapeSlack
		for i := 0; i < n; i++ {
			got, _ := tape.Next()
			want, _ := live.Next()
			if got != want {
				t.Fatalf("poll every=%d: op %d differs: tape %+v, live %+v", every, i, got, want)
			}
		}
		// Growth must keep the shorter derivation as an exact prefix.
		grownTape := RecordedPoll("matmul", 3, 2*inner, every, 0xF0)
		liveG := NewPollInstrumented(ByName("matmul", 3), every, 0xF0)
		for i := 0; i < 2*inner; i++ {
			got, _ := grownTape.Next()
			want, _ := liveG.Next()
			if got != want {
				t.Fatalf("poll every=%d grown: op %d differs: tape %+v, live %+v", every, i, got, want)
			}
		}

		spTape := RecordedSafepoint("fib", 5, inner, every)
		spLive := NewSafepointAnnotated(ByName("fib", 5), every)
		for i := 0; i < inner+TapeSlack; i++ {
			got, _ := spTape.Next()
			want, _ := spLive.Next()
			if got != want {
				t.Fatalf("safepoint every=%d: op %d differs: tape %+v, live %+v", every, i, got, want)
			}
		}

		// The pre-seeded decode must equal lowering each micro-op.
		for _, s := range []isa.Stream{tape, spTape} {
			dt := s.(*isa.TapeStream).Tape()
			dec := dt.Decoded()
			for i, m := range dt.Ops() {
				if dec.Ops[i] != isa.Decode(m) {
					t.Fatalf("%s every=%d: decoded op %d is %+v, want %+v", dt.Name(), every, i, dec.Ops[i], isa.Decode(m))
				}
			}
		}
	}
}

// TestRecordedDisabled checks the tapes-off path returns live
// generators and records nothing.
func TestRecordedDisabled(t *testing.T) {
	defer SetTapes(true)
	defer ResetTapes()
	ResetTapes()
	SetTapes(false)
	s := Recorded("fib", 1, 1000)
	if _, ok := s.(*isa.TapeStream); ok {
		t.Fatal("Recorded returned a tape stream with tapes disabled")
	}
	if got := Tapes(); got.Tapes != 0 || got.Recordings != 0 {
		t.Errorf("disabled Recorded touched the registry: %+v", got)
	}
}

func TestRecordedUnknownName(t *testing.T) {
	defer ResetTapes()
	if s := Recorded("no-such-workload", 1, 100); s != nil {
		t.Fatalf("Recorded(unknown) = %v, want nil", s)
	}
}

// TestTapeStreamAllocFree pins the replay hot path at zero allocations
// per op (mirroring TestScheduleSteadyStateAllocFree in internal/sim):
// once a tape exists, feeding the pipeline costs a cursor walk only.
func TestTapeStreamAllocFree(t *testing.T) {
	defer ResetTapes()
	ResetTapes()
	stream, ok := Recorded("linpack", 1, 100000).(*isa.TapeStream)
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
	defer ResetTapes()
	ResetTapes()
	stream := Recorded("linpack", 1, 100000).(*isa.TapeStream)
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
