package isa

// Decoded micro-op tapes. MicroOp is the generator-facing format: wide
// (48 bytes), one bool per attribute, latency left implicit for the
// pipeline to resolve per class. The pipeline's steady state wants the
// opposite: a dense format whose latency is already resolved and whose
// attributes are one flag word, so the per-instruction decode switch
// disappears from the hot loop. UOp is that format (24 bytes), and
// DecodedTape is a random-access UOp array with basic-block metadata —
// the only form a Tape stores, shared by every run over the tape. Lift
// turns a UOp back into a MicroOp for per-op Stream consumers.

// UFlags packs a MicroOp's boolean attributes and its Source into one
// word. Bits 0-7 are attribute flags; bits 8-9 carry the Source.
type UFlags uint16

const (
	// FShared marks Load/Store ops touching a cross-core shared line.
	FShared UFlags = 1 << iota
	// FTaken marks taken branches.
	FTaken
	// FMispredict marks branches that squash younger work at resolve.
	FMispredict
	// FBoundary marks the first micro-op of a macro-instruction.
	FBoundary
	// FSafepoint marks micro-ops carrying the safepoint prefix (§4.4).
	FSafepoint
	// FFetchBarrier stalls fetch past the op until it executes.
	FFetchBarrier
	// FWritesSP marks ops that write the stack pointer (§6.1's tracked
	// RSP producer chain).
	FWritesSP
	// FReadsSP marks ops that read the stack pointer.
	FReadsSP

	srcShift = 8 // Source occupies bits 8-9

	// fSpecial collects the flags that force an op into its own
	// non-clean basic block: anything the rename fast path must handle
	// individually. Serialize ops are special too, by class.
	fSpecial = FMispredict | FFetchBarrier | FWritesSP | FReadsSP
)

// UOp is the decoded, execution-ready form of a MicroOp: latency
// resolved at decode time, attributes packed into Flags. It is half a
// MicroOp's size, which matters — the pipeline copies one into every
// reorder-buffer entry.
type UOp struct {
	// Addr is the byte address touched by Load/Store ops.
	Addr uint64
	// Dep1 and Dep2 are backwards producer distances (0 = none), as in
	// MicroOp.
	Dep1, Dep2 uint32
	// Lat is the resolved execution latency: the MicroOp's override if
	// nonzero, else the class default. For Load it is the extra modelled
	// cost on top of the cache access the memory port prices at issue
	// (default 0).
	Lat uint16
	// Flags packs the attribute bits and the Source.
	Flags UFlags
	// Class selects the functional unit.
	Class OpClass
}

// Is reports whether any of the given flags is set.
func (u UOp) Is(f UFlags) bool { return u.Flags&f != 0 }

// Src returns the op's origin (program / interrupt ucode / handler).
func (u UOp) Src() Source { return Source(u.Flags >> srcShift) }

// WithSource returns u restamped with the given source, the decoded
// counterpart of the pipeline stamping MicroOp.Source at injection.
func (u UOp) WithSource(s Source) UOp {
	u.Flags = u.Flags&(1<<srcShift-1) | UFlags(s)<<srcShift
	return u
}

// defLat is the per-class default execution latency, formerly resolved
// per instruction per cycle by the pipeline. Load's 0 means "priced by
// the memory port at issue"; a nonzero MicroOp.Lat on a Load is an
// extra cost on top of that.
var defLat = [NumClasses]uint16{
	Nop:       1,
	IntAlu:    1,
	IntMult:   3,
	FPAlu:     3,
	FPMult:    4,
	Load:      0,
	Store:     1, // address generation; data retires via the SQ
	Branch:    1,
	Serialize: 32,
}

// Decode lowers one MicroOp to its execution-ready form.
func Decode(m MicroOp) UOp {
	u := UOp{
		Addr:  m.Addr,
		Dep1:  m.Dep1,
		Dep2:  m.Dep2,
		Lat:   m.Lat,
		Class: m.Class,
		Flags: UFlags(m.Source) << srcShift,
	}
	if m.Lat == 0 && int(m.Class) < len(defLat) {
		u.Lat = defLat[m.Class]
	}
	if m.Shared {
		u.Flags |= FShared
	}
	if m.Taken {
		u.Flags |= FTaken
	}
	if m.Mispredict {
		u.Flags |= FMispredict
	}
	if m.BoundaryStart {
		u.Flags |= FBoundary
	}
	if m.Safepoint {
		u.Flags |= FSafepoint
	}
	if m.FetchBarrier {
		u.Flags |= FFetchBarrier
	}
	if m.WritesSP {
		u.Flags |= FWritesSP
	}
	if m.ReadsSP {
		u.Flags |= FReadsSP
	}
	return u
}

// Lift inverts Decode up to latency resolution: the MicroOp it returns
// carries u's resolved latency as an explicit Lat, so Decode(Lift(u))
// == u for every u Decode produces, and Lift(Decode(m)) is m with a
// zero Lat replaced by the class default.
//
//xui:noalloc
func Lift(u UOp) MicroOp {
	return MicroOp{
		Class:         u.Class,
		Lat:           u.Lat,
		Dep1:          u.Dep1,
		Dep2:          u.Dep2,
		Addr:          u.Addr,
		Shared:        u.Flags&FShared != 0,
		Taken:         u.Flags&FTaken != 0,
		Mispredict:    u.Flags&FMispredict != 0,
		BoundaryStart: u.Flags&FBoundary != 0,
		Safepoint:     u.Flags&FSafepoint != 0,
		FetchBarrier:  u.Flags&FFetchBarrier != 0,
		WritesSP:      u.Flags&FWritesSP != 0,
		ReadsSP:       u.Flags&FReadsSP != 0,
		Source:        u.Src(),
	}
}

// Block is one basic block of a decoded tape: ops [Start, End). Clean
// blocks contain only ordinary ops — no serializers, fetch barriers,
// mispredicting branches or stack-pointer traffic — so a front end
// renaming through one needs no per-op special-casing. Special ops are
// singleton non-clean blocks.
type Block struct {
	Start, End uint32
	Clean      bool
}

// DecodedTape is a tape's execution-ready form: a random-access UOp
// array (the pipeline's replay window becomes an index) plus its
// basic-block partition. Immutable after construction, shared by every
// stream over the tape — growth builds a new DecodedTape, it never
// mutates one.
type DecodedTape struct {
	Name   string
	Ops    []UOp
	Blocks []Block
}

// clean reports whether u may live inside a clean block.
func clean(u UOp) bool {
	return u.Class != Serialize && u.Flags&fSpecial == 0
}

// buildBlocks computes the basic-block partition of a decoded op
// array: maximal clean runs, with each special op a singleton block.
// A first pass counts block starts to size the result exactly, so a
// resident tape holds no append slack.
func buildBlocks(ops []UOp) []Block {
	n := 0
	for i, u := range ops {
		if !clean(u) || i == 0 || !clean(ops[i-1]) {
			n++
		}
	}
	blocks := make([]Block, 0, n)
	start := 0
	for i, u := range ops {
		if clean(u) {
			continue
		}
		if i > start {
			blocks = append(blocks, Block{Start: uint32(start), End: uint32(i), Clean: true})
		}
		blocks = append(blocks, Block{Start: uint32(i), End: uint32(i + 1)})
		start = i + 1
	}
	if len(ops) > start {
		blocks = append(blocks, Block{Start: uint32(start), End: uint32(len(ops)), Clean: true})
	}
	return blocks
}
