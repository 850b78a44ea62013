package isa

import "testing"

// microOp builds a MicroOp from packed attribute bits (bit i is the
// i-th boolean field in declaration order), so the tests below can
// enumerate every attribute combination.
func microOp(c OpClass, lat uint16, bits uint8, src Source, dep1, dep2 uint32, addr uint64) MicroOp {
	return MicroOp{
		Class: c, Lat: lat, Dep1: dep1, Dep2: dep2, Addr: addr,
		Shared:        bits&1 != 0,
		Taken:         bits&2 != 0,
		Mispredict:    bits&4 != 0,
		BoundaryStart: bits&8 != 0,
		Safepoint:     bits&16 != 0,
		FetchBarrier:  bits&32 != 0,
		WritesSP:      bits&64 != 0,
		ReadsSP:       bits&128 != 0,
		Source:        src,
	}
}

// resolved is m with a zero Lat replaced by its class default — what
// Lift(Decode(m)) must return.
func resolved(m MicroOp) MicroOp {
	if m.Lat == 0 {
		m.Lat = defLat[m.Class]
	}
	return m
}

// checkRoundTrip asserts both directions of the decode/lift contract
// for m: Lift(Decode(m)) is m with its latency resolved, and decoding
// that lift reproduces Decode(m) exactly.
func checkRoundTrip(t *testing.T, m MicroOp) {
	t.Helper()
	u := Decode(m)
	if got, want := Lift(u), resolved(m); got != want {
		t.Fatalf("Lift(Decode(%+v)) = %+v, want %+v", m, got, want)
	}
	if got := Decode(Lift(u)); got != u {
		t.Fatalf("Decode(Lift(%+v)) = %+v", u, got)
	}
}

// TestDecodeLiftRoundTrip enumerates every class, attribute-flag and
// source combination, with default and explicit latencies, and checks
// that Lift inverts Decode up to latency resolution. The engine
// differential test relies on this: the interpreted engine reads a
// tape through Lift and re-decodes, the fast engine indexes the tape.
func TestDecodeLiftRoundTrip(t *testing.T) {
	n := 0
	for c := OpClass(0); int(c) < NumClasses; c++ {
		for bits := 0; bits < 256; bits++ {
			for _, src := range []Source{SrcProgram, SrcIntrUcode, SrcHandler} {
				for _, lat := range []uint16{0, 1, 2, 279, 0xffff} {
					checkRoundTrip(t, microOp(c, lat, uint8(bits), src, uint32(bits), uint32(lat), uint64(bits)<<6|uint64(c)))
					n++
				}
			}
		}
	}
	if want := NumClasses * 256 * 3 * 5; n != want {
		t.Fatalf("checked %d combinations, want %d", n, want)
	}
	// Every flag bit and source must survive the trip on its own, so a
	// Lift that dropped one attribute cannot hide behind another.
	for f := UFlags(1); f < 1<<srcShift; f <<= 1 {
		u := UOp{Class: IntAlu, Lat: 1, Flags: f | UFlags(SrcHandler)<<srcShift}
		if got := Decode(Lift(u)); got != u {
			t.Fatalf("flag %#x: Decode(Lift(%+v)) = %+v", f, u, got)
		}
	}
}

// FuzzDecodeLift checks the round trip on arbitrary field values, from
// both ends: any MicroOp of a valid class and source, and any UOp that
// Decode can produce.
func FuzzDecodeLift(f *testing.F) {
	f.Add(uint8(Load), uint16(0), uint32(1), uint32(0), uint64(0x40), uint8(9), uint8(0))
	f.Add(uint8(Serialize), uint16(279), uint32(0), uint32(3), uint64(0), uint8(0xff), uint8(1))
	f.Add(uint8(Branch), uint16(0), uint32(1), uint32(1<<31), uint64(1<<63), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, class uint8, lat uint16, dep1, dep2 uint32, addr uint64, bits, src uint8) {
		c := OpClass(class % uint8(NumClasses))
		s := Source(src % 3)
		checkRoundTrip(t, microOp(c, lat, bits, s, dep1, dep2, addr))

		u := UOp{Addr: addr, Dep1: dep1, Dep2: dep2, Lat: lat, Class: c,
			Flags: UFlags(bits) | UFlags(s)<<srcShift}
		if u.Lat == 0 {
			u.Lat = defLat[c] // Decode never leaves a defaulted latency at 0
		}
		if got := Decode(Lift(u)); got != u {
			t.Fatalf("Decode(Lift(%+v)) = %+v", u, got)
		}
	})
}

// TestTapeStreamLifts checks NewTape decodes eagerly and a stream over
// it replays Lift of each decoded op, then ends.
func TestTapeStreamLifts(t *testing.T) {
	ops := []MicroOp{
		{Class: Load, Addr: 64, BoundaryStart: true},
		{Class: IntAlu, Dep1: 1},
		{Class: Serialize, Lat: 279, Source: SrcIntrUcode},
		{Class: Branch, Dep1: 1, Taken: true, Mispredict: true},
	}
	tape := NewTape("demo", ops)
	dec := tape.Decoded()
	if tape.Name() != "demo" || tape.Len() != len(ops) || len(dec.Ops) != len(ops) {
		t.Fatalf("tape %q holds %d ops (decoded %d), want demo/%d", tape.Name(), tape.Len(), len(dec.Ops), len(ops))
	}
	s := tape.Stream()
	for i, m := range ops {
		if dec.Ops[i] != Decode(m) {
			t.Fatalf("decoded op %d = %+v, want %+v", i, dec.Ops[i], Decode(m))
		}
		got, ok := s.Next()
		if !ok || got != resolved(m) {
			t.Fatalf("Next %d = %+v, %v; want %+v", i, got, ok, resolved(m))
		}
	}
	if _, ok := s.Next(); ok || s.Pos() != len(ops) {
		t.Fatalf("stream did not end at %d (pos %d)", len(ops), s.Pos())
	}
	// Serialize and the mispredicting branch are singleton blocks.
	want := []Block{{0, 2, true}, {2, 3, false}, {3, 4, false}}
	if len(dec.Blocks) != len(want) || cap(dec.Blocks) != len(want) {
		t.Fatalf("blocks = %+v (cap %d), want %+v", dec.Blocks, cap(dec.Blocks), want)
	}
	for i := range want {
		if dec.Blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, dec.Blocks[i], want[i])
		}
	}
}
