package cpu

import (
	"fmt"
	"math/bits"

	"xui/internal/isa"
)

type entryState uint8

const (
	stWaiting entryState = iota // in IQ, dependences unsatisfied or no slot yet
	stIssued                    // executing, completes at doneAt
	stDone                      // result available, awaiting in-order commit
)

// robEntry is one in-flight micro-op.
type robEntry struct {
	seq uint64
	// gen is a monotonically increasing rename stamp. Seq numbers are
	// reused after a misprediction squash (tail rewinds), so references
	// held outside the ROB (the fast engine's wakeup lists) validate
	// against (seq, gen) pairs — seq alone could match a refetched op in
	// the same slot.
	gen       uint64
	streamPos uint64 // program-stream position; valid when op.Src() == SrcProgram
	op        isa.UOp
	dep1      uint64 // absolute seq of producers; 0 = none
	dep2      uint64
	depSP     uint64 // stack-pointer producer for ReadsSP ops
	state     entryState
	doneAt    uint64
}

// Interrupt describes one interrupt presented to the core by the (modelled)
// local APIC.
type Interrupt struct {
	// Vector is the user vector, recorded for bookkeeping.
	Vector uint8
	// SkipNotification starts delivery directly at the delivery microcode,
	// as KB_Timer and forwarded device interrupts do (§4.3, §4.5): no UPID
	// access, no notification-processing routine.
	SkipNotification bool
	// Handler is the user handler body. Ops are stamped SrcHandler.
	Handler []isa.MicroOp
	// Tag is an opaque label copied to the interrupt's record.
	Tag string
}

// IntrRecord is the per-interrupt instrumentation the experiments consume.
// All times are absolute cycles; zero means "did not happen".
type IntrRecord struct {
	Tag               string
	Vector            uint8
	Arrive            uint64 // accepted by the core (pin raised, UIF open)
	InjectStart       uint64 // first microcode op entered rename
	FirstUcodeCommit  uint64 // first microcode op committed
	NotifDone         uint64 // last notification-routine op committed
	DeliveryDone      uint64 // last delivery-routine op committed
	HandlerStart      uint64 // first handler op committed
	HandlerDone       uint64 // last handler op committed
	UiretDone         uint64 // uiret committed; program delivery complete
	SquashedAtArrival int    // in-flight program uops flushed on arrival (Flush)
	Reinjections      int    // tracked re-injections after mispredict squashes
	Lost              bool   // only with TrackedReinject disabled (ablation)
}

// intrState tracks one in-progress interrupt delivery.
type intrState struct {
	intr           Interrupt
	rec            *IntrRecord
	seqOps         []isa.UOp // the full stamped sequence notif+delivery+handler+uiret
	deliveryHi     int       // index of last delivery op within seqOps
	notifHi        int       // index of last notification op, -1 if skipped
	injectPos      int       // next seqOps index to inject
	firstSeq       uint64    // ROB seq of first injected op in the current injection
	injected       bool      // currently (re-)injected into the window
	committedFirst bool
	waitBoundary   bool // waiting for an instruction boundary (or safepoint)
}

type scheduledIntr struct {
	at   uint64
	intr Interrupt
}

// Core is the out-of-order core model.
type Core struct {
	cfg Config
	mem MemPort

	cycle uint64

	// ROB ring buffer: seq numbers start at 1; entry for seq s lives at
	// ent[s&entMask]. head = oldest in-flight seq, tail = next seq. The
	// ring is sized to the next power of two above cfg.ROBSize so the
	// slot lookup — on every hot path — is a mask, not a hardware
	// division; logical capacity stays cfg.ROBSize.
	ent     []robEntry
	entMask uint64
	posMask uint64 // same for the posSeq ring
	head    uint64
	tail    uint64

	iqCount int
	lqCount int
	sqCount int

	// iqList holds the seqs of stWaiting entries in fetch order; it is
	// compacted lazily as entries issue or are squashed.
	iqList []uint64
	// doneHeap holds completions scheduled at least wheelSpan cycles out
	// (DRAM-class loads with large modelled extra latency); everything
	// nearer lives in the timing wheel below. Heap order is (doneAt, seq)
	// so the writeback merge with the wheel bucket drains one global
	// completion order.
	doneHeap compHeap
	// The timing wheel: wheel[doneAt&wheelMask] holds the seqs (ascending)
	// of ops completing at doneAt, for every completion within wheelSpan
	// cycles of now. A bucket never mixes two completion cycles: all live
	// doneAts sit in (cycle, cycle+wheelSpan), an interval that meets each
	// residue class mod wheelSpan exactly once. wheelAt[b] records the
	// bucket's doneAt; wheelBits is the non-empty bitmap that makes the
	// idle fast-forward scan (wheelNext) a handful of word tests. This
	// turns the common-case completion schedule from heap sift traffic
	// into an append and a bucket drain.
	wheel     [][]uint64
	wheelAt   []uint64
	wheelBits []uint64
	wheelMask uint64
	// serializing counts Serialize ops currently executing.
	serializing int
	// progress flags for the current cycle (set by the stages).
	didWork bool

	// Program front-end.
	prog      isa.Stream
	progDone  bool
	buf       []isa.UOp // replay window of fetched-but-uncommitted program ops
	bufOff    int       // index of the window's oldest op within buf
	bufBase   uint64    // stream position of buf[bufOff]
	fetchPos  uint64    // next stream position to fetch
	commitPos uint64    // number of program ops committed (= next pos to commit)
	posSeq    []uint64  // in-flight seq per stream position (ring)

	// Fast engine (see fast.go). fast selects the wakeup-scheduler issue
	// path; dec, when non-nil, is the program's decoded tape, fetched by
	// direct indexing (fetchPos is the index; buf stays empty).
	fast     bool
	dec      *isa.DecodedTape
	blockIdx int    // dec.Blocks cursor for block-granular fetch
	fidelity uint64 // resolved FidelityWindow
	genCtr   uint64 // rename stamp source (see robEntry.gen)
	// pend counts unresolved producers per ROB slot; waiters holds the
	// (seq, gen) refs to wake when the slot's op completes.
	pend    []int32
	waiters [][]entryRef
	// readyList holds ready-but-unissued entries in ascending seq order
	// (stale refs are dropped lazily). serQ is a FIFO of in-flight
	// Serialize ops, drained from serHead.
	readyList []entryRef
	serQ      []entryRef
	serHead   int

	fetchStallUntil uint64
	draining        bool
	// barrierSeq, when nonzero, is an in-flight FetchBarrier op; fetch
	// stalls past it until it executes.
	barrierSeq uint64

	// Stack-pointer writers currently in flight, ascending seq.
	spWriters []uint64

	// Interrupts. arrivals and pendQueue are drained with head cursors
	// (reset when empty) so their backing arrays are reused, not resliced
	// away.
	arrivals  []scheduledIntr // sorted by at; pending region is [arrHead:]
	arrHead   int
	pendQueue []Interrupt // accepted-but-blocked (UIF clear / another in progress)
	pendHead  int
	cur       *intrState
	// curState is the storage cur points at: at most one delivery is in
	// progress, so one reused struct (and its seqOps scratch) serves every
	// interrupt without a per-interrupt allocation.
	curState intrState
	uifSet   bool // user interrupts enabled

	// Periodic generator (optional).
	period     uint64
	periodNext uint64
	periodGen  func() Interrupt

	// OnProgramCommit, when non-nil, is invoked as each program micro-op
	// retires, with its stream position and the commit cycle. Experiments
	// use it to timestamp specific instructions (e.g. senduipi's ICR
	// write) without touching the pipeline.
	OnProgramCommit func(streamPos, cycle uint64)

	// obsv, when non-nil, receives the interrupt-delivery lifecycle.
	obsv IntrObserver

	// Statistics.
	committedProgram uint64
	committedOther   uint64
	squashedProgram  uint64 // program uops squashed (lost work)
	squashedOther    uint64
	//xui:aliased
	records      []IntrRecord
	fetchedTotal uint64
}

// ringSize rounds n up to a power of two: ring slot lookups become a
// mask instead of a division by a runtime-variable length.
func ringSize(n int) int {
	r := 1
	for r < n {
		r <<= 1
	}
	return r
}

// wheelSpan is the timing wheel's horizon in cycles (power of two). It
// covers every fixed-latency unit and all cache-hit loads; only
// DRAM-class completions with large modelled extra latency overflow to
// the heap, which keeps that path exercised rather than dead.
const wheelSpan = 256

// New builds a core over a program stream and a memory port.
func New(cfg Config, prog isa.Stream, mp MemPort) *Core {
	if cfg.ROBSize == 0 {
		cfg = DefaultConfig()
	}
	ring := ringSize(cfg.ROBSize)
	c := &Core{
		cfg:       cfg,
		mem:       mp,
		prog:      prog,
		ent:       make([]robEntry, ring),
		entMask:   uint64(ring - 1),
		head:      1,
		tail:      1,
		posSeq:    make([]uint64, 4096),
		posMask:   4096 - 1,
		buf:       make([]isa.UOp, 0, 1024),
		iqList:    make([]uint64, 0, cfg.IQSize),
		pend:      make([]int32, ring),
		waiters:   make([][]entryRef, ring),
		readyList: make([]entryRef, 0, cfg.IQSize),
		wheel:     make([][]uint64, wheelSpan),
		wheelAt:   make([]uint64, wheelSpan),
		wheelBits: make([]uint64, wheelSpan/64),
		wheelMask: wheelSpan - 1,
		uifSet:    true,
	}
	c.initEngine()
	return c
}

// initEngine resolves the execution engine and, for tape-backed programs
// on the fast engine, swaps the per-op stream cursor for the tape's
// decoded random-access form. Called from New and Reset.
func (c *Core) initEngine() {
	c.fast = c.cfg.Engine == EngineFast
	c.fidelity = c.cfg.FidelityWindow
	if c.fidelity == 0 {
		c.fidelity = DefaultFidelityWindow
	}
	c.dec = nil
	c.blockIdx = 0
	if !c.fast {
		return
	}
	if ts, ok := c.prog.(*isa.TapeStream); ok && ts.Pos() == 0 {
		if t := ts.Tape(); t != nil {
			c.dec = t.Decoded()
		}
	}
}

// Reset reinitializes the core for a fresh run of prog under cfg,
// reusing every backing array New allocated (ROB entries, position
// ring, replay window, issue list, completion heap, interrupt queues,
// delivery scratch). A reset core is observably identical to a freshly
// built one — TestCoreResetEquivalence pins this — which is what lets
// experiment sweeps pool cores instead of reallocating per grid point.
//
// The one slice deliberately dropped rather than truncated is records:
// Result.Interrupts aliases it, so a pooled core must leave previously
// returned Results (possibly held by the run cache) untouched and
// start a fresh slice.
//
// The memory port is replaced, not reset: callers pooling a PrivatePort
// reset its Hierarchy themselves (mem.Hierarchy.Reset) before reuse.
//
//xui:noalloc
func (c *Core) Reset(cfg Config, prog isa.Stream, mp MemPort) {
	if cfg.ROBSize == 0 {
		cfg = DefaultConfig()
	}
	c.cfg = cfg
	c.mem = mp
	c.cycle = 0

	if ring := ringSize(cfg.ROBSize); len(c.ent) != ring {
		c.ent = make([]robEntry, ring) //xui:alloc ROB resize; pooled resets reuse the ring at equal size
		c.pend = make([]int32, ring)
		c.waiters = make([][]entryRef, ring) //xui:alloc ROB resize; pooled resets reuse the ring at equal size
		c.entMask = uint64(ring - 1)
	} else {
		clear(c.ent)
		clear(c.pend)
		for i := range c.waiters {
			c.waiters[i] = c.waiters[i][:0]
		}
	}
	c.head, c.tail = 1, 1
	c.iqCount, c.lqCount, c.sqCount = 0, 0, 0
	c.iqList = c.iqList[:0]
	c.readyList = c.readyList[:0]
	c.serQ = c.serQ[:0]
	c.serHead = 0
	c.genCtr = 0
	c.doneHeap.items = c.doneHeap.items[:0]
	for b := range c.wheel {
		c.wheel[b] = c.wheel[b][:0]
	}
	clear(c.wheelBits)
	c.serializing = 0
	c.didWork = false

	c.prog = prog
	c.progDone = false
	c.buf = c.buf[:0]
	c.bufOff, c.bufBase = 0, 0
	c.fetchPos, c.commitPos = 0, 0
	clear(c.posSeq)

	c.fetchStallUntil = 0
	c.draining = false
	c.barrierSeq = 0
	c.spWriters = c.spWriters[:0]

	c.arrivals = c.arrivals[:0]
	c.arrHead = 0
	c.pendQueue = c.pendQueue[:0]
	c.pendHead = 0
	c.cur = nil
	c.curState = intrState{seqOps: c.curState.seqOps[:0]}
	c.uifSet = true

	c.period, c.periodNext = 0, 0
	c.periodGen = nil
	c.OnProgramCommit = nil
	c.obsv = nil

	c.committedProgram, c.committedOther = 0, 0
	c.squashedProgram, c.squashedOther = 0, 0
	c.records = nil
	c.fetchedTotal = 0

	c.initEngine()
}

// DropProgram releases the core's references to its program stream and
// decoded tape, so an idle pooled core keeps no finished run's tape
// alive. The core must be Reset before it runs again.
func (c *Core) DropProgram() { c.prog, c.dec = nil, nil }

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Records returns the per-interrupt instrumentation collected so far.
func (c *Core) Records() []IntrRecord { return c.records }

// Config returns the configuration the core is currently running.
func (c *Core) Config() Config { return c.cfg }

// Observer returns the attached interrupt observer (nil when none).
func (c *Core) Observer() IntrObserver { return c.obsv }

// Occupancy reports the current structure occupancies: in-flight ROB
// entries and issue/load/store-queue entries. Used by the invariant
// checker to assert the Table 3 capacity bounds hold every delivery.
func (c *Core) Occupancy() (rob, iq, lq, sq int) {
	return int(c.tail - c.head), c.iqCount, c.lqCount, c.sqCount
}

// ScheduleInterrupt presents intr to the core at absolute cycle at.
func (c *Core) ScheduleInterrupt(at uint64, intr Interrupt) {
	// Insert keeping sorted order (arrivals are few and mostly appended).
	i := len(c.arrivals)
	for i > c.arrHead && c.arrivals[i-1].at > at {
		i--
	}
	c.arrivals = append(c.arrivals, scheduledIntr{})
	copy(c.arrivals[i+1:], c.arrivals[i:])
	c.arrivals[i] = scheduledIntr{at: at, intr: intr}
}

// PeriodicInterrupts arranges for gen() to be delivered every period cycles,
// starting at first.
func (c *Core) PeriodicInterrupts(first, period uint64, gen func() Interrupt) {
	c.period = period
	c.periodNext = first
	c.periodGen = gen
}

// Result summarises a run.
type Result struct {
	Cycles           uint64
	CommittedProgram uint64
	CommittedOther   uint64 // microcode + handler micro-ops
	SquashedProgram  uint64
	SquashedOther    uint64
	Interrupts       []IntrRecord
	IPC              float64
}

// Run advances the core until maxProgramUops program micro-ops have
// committed (or the stream ends), bounded by maxCycles as a safety net.
// Cycles in which the core provably cannot make progress (all in-flight
// work waiting on long-latency completions) are skipped in O(1).
func (c *Core) Run(maxProgramUops, maxCycles uint64) Result {
	target := c.committedProgram + maxProgramUops
	limit := c.cycle + maxCycles
	for c.committedProgram < target && c.cycle < limit {
		c.step()
		if c.progDone && c.head == c.tail && c.cur == nil && c.pendHead >= len(c.pendQueue) &&
			c.replayExhausted() {
			// Stream exhausted, window drained, no delivery in progress,
			// and no squashed ops awaiting refetch from the replay buffer.
			break
		}
		if !c.didWork {
			next, ok := c.nextEventCycle()
			if !ok {
				break // quiescent with no future events: nothing left to do
			}
			if next > limit {
				next = limit
			}
			if next > c.cycle+1 {
				c.cycle = next - 1
			}
		}
	}
	res := Result{
		Cycles:           c.cycle,
		CommittedProgram: c.committedProgram,
		CommittedOther:   c.committedOther,
		SquashedProgram:  c.squashedProgram,
		SquashedOther:    c.squashedOther,
		Interrupts:       c.records,
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.CommittedProgram) / float64(res.Cycles)
	}
	return res
}

// replayExhausted reports that no fetched-but-uncommitted program op
// remains to refetch: fetchPos has reached the end of the decoded tape,
// or (buf path) the replay window.
func (c *Core) replayExhausted() bool {
	if c.dec != nil {
		return c.fetchPos >= uint64(len(c.dec.Ops))
	}
	return c.bufOff+int(c.fetchPos-c.bufBase) >= len(c.buf)
}

// RunCycles advances the core by exactly n cycles (no idle fast-forward),
// for lockstep multi-core co-simulation where another core's events may
// land at any cycle.
func (c *Core) RunCycles(n uint64) {
	for end := c.cycle + n; c.cycle < end; {
		c.step()
	}
}

// CommittedProgram returns the number of program micro-ops retired.
func (c *Core) CommittedProgram() uint64 { return c.committedProgram }

// step advances one cycle.
func (c *Core) step() {
	c.cycle++
	c.didWork = false
	c.acceptInterrupts()
	c.writeback()
	c.commit()
	c.issue()
	c.fetch()
}

// nextEventCycle returns the earliest future cycle at which core state can
// change, used to skip provably idle cycles.
func (c *Core) nextEventCycle() (uint64, bool) {
	next := uint64(0)
	merge := func(t uint64) {
		if t > c.cycle && (next == 0 || t < next) {
			next = t
		}
	}
	if it, ok := c.doneHeap.peek(); ok {
		merge(it.doneAt)
	}
	if t, ok := c.wheelNext(); ok {
		merge(t)
	}
	if c.cycle < c.fetchStallUntil {
		merge(c.fetchStallUntil)
	}
	if c.arrHead < len(c.arrivals) {
		merge(c.arrivals[c.arrHead].at)
	}
	if c.periodGen != nil {
		merge(c.periodNext)
	}
	if next == 0 {
		return 0, false
	}
	return next, true
}

// scheduleDone enters an issued op into the completion schedule: the
// timing wheel for anything within wheelSpan cycles (the overwhelmingly
// common case), the overflow heap beyond. Both engines route every
// issue through here, so completions drain in one shared (doneAt, seq)
// order regardless of engine.
//
//xui:noalloc
func (c *Core) scheduleDone(doneAt, seq uint64) {
	if doneAt-c.cycle >= wheelSpan {
		c.doneHeap.push(doneAt, seq)
		return
	}
	b := doneAt & c.wheelMask
	bk := c.wheel[b]
	if len(bk) == 0 {
		c.wheelBits[b>>6] |= 1 << (b & 63)
		c.wheelAt[b] = doneAt
	}
	// Keep the bucket ascending in seq. Same-cycle issue walks its list
	// oldest-first, so the common append is at the tail; only ops issued
	// on earlier cycles into the same completion cycle shift anything.
	i := len(bk)
	bk = append(bk, 0)
	for i > 0 && bk[i-1] > seq {
		bk[i] = bk[i-1]
		i--
	}
	bk[i] = seq
	c.wheel[b] = bk
}

// wheelNext returns the earliest completion cycle pending in the wheel.
// Every live doneAt lies in (cycle, cycle+wheelSpan), an interval that
// walks the ring monotonically from slot cycle+1 — so the first set
// bitmap bit in ring order from there is the minimum.
//
//xui:noalloc
func (c *Core) wheelNext() (uint64, bool) {
	start := (c.cycle + 1) & c.wheelMask
	w0, off := start>>6, start&63
	if word := c.wheelBits[w0] & (^uint64(0) << off); word != 0 {
		b := w0<<6 + uint64(bits.TrailingZeros64(word))
		return c.wheelAt[b], true
	}
	nw := uint64(len(c.wheelBits))
	for i := uint64(1); i < nw; i++ {
		w := (w0 + i) & (nw - 1)
		if word := c.wheelBits[w]; word != 0 {
			b := w<<6 + uint64(bits.TrailingZeros64(word))
			return c.wheelAt[b], true
		}
	}
	if word := c.wheelBits[w0] &^ (^uint64(0) << off); word != 0 {
		b := w0<<6 + uint64(bits.TrailingZeros64(word))
		return c.wheelAt[b], true
	}
	return 0, false
}

// writeback marks finished executions done and resolves branch
// mispredictions at execute time.
func (c *Core) writeback() {
	// Merge this cycle's wheel bucket with the overflow heap so
	// completions drain in the one global (doneAt, seq) order both
	// engines define. The bucket is ascending in seq and holds a single
	// doneAt (== cycle), so a two-way merge suffices.
	b := c.cycle & c.wheelMask
	var bucket []uint64
	if c.wheelBits[b>>6]&(1<<(b&63)) != 0 {
		bucket = c.wheel[b]
	}
	bi := 0
	for {
		it, ok := c.doneHeap.peek()
		if !ok || it.doneAt > c.cycle {
			break
		}
		for bi < len(bucket) && (compItem{c.cycle, bucket[bi]}).before(it) {
			c.completeEntry(bucket[bi], c.cycle)
			bi++
		}
		c.doneHeap.pop()
		c.completeEntry(it.seq, it.doneAt)
	}
	for ; bi < len(bucket); bi++ {
		c.completeEntry(bucket[bi], c.cycle)
	}
	if bucket != nil {
		c.wheel[b] = bucket[:0]
		c.wheelBits[b>>6] &^= 1 << (b & 63)
	}
}

// completeEntry finishes one execution (from the wheel bucket or the
// overflow heap), validating the reference against the ROB first — a
// squashed op's stale completion is simply discarded.
//
//xui:noalloc
func (c *Core) completeEntry(seq, doneAt uint64) {
	e := &c.ent[seq&c.entMask]
	if e.seq != seq || e.state != stIssued || e.doneAt != doneAt {
		return // stale entry from a squashed op
	}
	e.state = stDone
	c.didWork = true
	if e.op.Class == isa.Serialize {
		c.serializing--
	}
	if e.op.Class == isa.Branch && e.op.Is(isa.FMispredict) {
		c.resolveMispredict(e)
		// Younger entries are gone; stale completions self-discard. The
		// branch's own consumers were all younger, so no wakeup either.
		return
	}
	if c.fast {
		c.wakeWaiters(seq)
	}
}

// ---- interrupt acceptance ----------------------------------------------

func (c *Core) acceptInterrupts() {
	if c.periodGen != nil && c.cycle >= c.periodNext {
		c.arrivalAt(c.periodGen())
		c.periodNext += c.period
	}
	for c.arrHead < len(c.arrivals) && c.arrivals[c.arrHead].at <= c.cycle {
		intr := c.arrivals[c.arrHead].intr
		c.arrivals[c.arrHead] = scheduledIntr{}
		c.arrHead++
		c.arrivalAt(intr)
	}
	if c.arrHead == len(c.arrivals) && c.arrHead > 0 {
		c.arrivals, c.arrHead = c.arrivals[:0], 0
	}
	// A delivery that completed last cycle re-enabled UIF; accept a posted
	// interrupt now (not mid-commit, which would corrupt the ROB walk).
	if c.cur == nil && c.uifSet && c.pendHead < len(c.pendQueue) {
		next := c.pendQueue[c.pendHead]
		c.pendQueue[c.pendHead] = Interrupt{}
		c.pendHead++
		if c.pendHead == len(c.pendQueue) {
			c.pendQueue, c.pendHead = c.pendQueue[:0], 0
		}
		c.accept(next)
	}
	// Drain strategies: inject once the window is empty.
	if c.cur != nil && c.draining && c.head == c.tail {
		c.draining = false
		if c.obsv != nil {
			c.obsv.IntrDrain(c.cur.rec.Arrive, c.cycle)
		}
		if c.cfg.Strategy == LegacyGem5 {
			// Stock gem5 adds a fixed 13 cycles after every drain (§5.2).
			c.fetchStallUntil = c.cycle + 13
			if c.obsv != nil {
				c.obsv.IntrRefill(c.cycle, c.fetchStallUntil)
			}
		}
		c.beginInjection()
		c.didWork = true
	}
}

func (c *Core) arrivalAt(intr Interrupt) {
	if c.cur != nil || !c.uifSet {
		// Blocked: posted, delivered when the current delivery finishes
		// (mirrors UIRR accumulation + UIF).
		c.pendQueue = append(c.pendQueue, intr)
		if c.obsv != nil {
			c.obsv.IntrDeferred(c.cycle)
		}
		return
	}
	c.accept(intr)
}

func (c *Core) accept(intr Interrupt) {
	c.didWork = true
	rec := IntrRecord{Tag: intr.Tag, Vector: intr.Vector, Arrive: c.cycle}
	c.records = append(c.records, rec)
	// Reuse the one delivery-state struct (and its seqOps backing): accept
	// only runs with no delivery in progress, so the previous interrupt is
	// done with it.
	st := &c.curState
	*st = intrState{
		intr:   intr,
		rec:    &c.records[len(c.records)-1],
		seqOps: st.seqOps[:0],
	}
	st.buildSequence(c.cfg)
	c.cur = st
	c.uifSet = false
	if c.obsv != nil {
		c.obsv.IntrArrive(c.cycle, intr.Tag, intr.Vector, c.cfg.Strategy.String())
	}

	switch c.cfg.Strategy {
	case Flush:
		n := int(c.tail - c.head)
		st.rec.SquashedAtArrival = n
		c.squashAllInFlight()
		squashCycles := uint64((n + c.cfg.SquashWidth - 1) / c.cfg.SquashWidth)
		// Conventional interrupt entry is architecturally serializing on
		// x86; the microcode sequencer restart adds a fixed penalty on top
		// of the squash and front-end refill. Tracked delivery exists to
		// avoid exactly this (§4.2).
		c.fetchStallUntil = c.cycle + squashCycles + uint64(c.cfg.FrontEndDepth) + uint64(c.cfg.FlushEntryPenalty)
		if c.obsv != nil {
			c.obsv.IntrSquash(c.cycle, c.cycle+squashCycles, n)
			c.obsv.IntrRefill(c.cycle+squashCycles, c.fetchStallUntil)
		}
		c.beginInjection()
	case Drain, LegacyGem5:
		c.draining = true
		if c.head == c.tail {
			c.draining = false
			if c.obsv != nil {
				c.obsv.IntrDrain(c.cycle, c.cycle)
			}
			if c.cfg.Strategy == LegacyGem5 {
				c.fetchStallUntil = c.cycle + 13
				if c.obsv != nil {
					c.obsv.IntrRefill(c.cycle, c.fetchStallUntil)
				}
			}
			c.beginInjection()
		}
	case Tracked:
		// Inject at the next instruction boundary (or safepoint); fetch
		// keeps running — zero redirect penalty.
		st.waitBoundary = true
	}
}

// buildSequence stamps the full micro-op sequence for this interrupt into
// s.seqOps (whose backing array is reused across deliveries).
func (s *intrState) buildSequence(cfg Config) {
	ops := s.seqOps[:0]
	s.notifHi = -1
	if !s.intr.SkipNotification {
		for _, op := range cfg.Ucode.Notification.Ops {
			ops = append(ops, isa.Decode(op).WithSource(isa.SrcIntrUcode))
		}
		s.notifHi = len(ops) - 1
	}
	deliveryLo := len(ops)
	for _, op := range cfg.Ucode.Delivery.Ops {
		ops = append(ops, isa.Decode(op).WithSource(isa.SrcIntrUcode))
	}
	if s.notifHi >= 0 && deliveryLo < len(ops) {
		// The delivery routine pushes the vector that notification
		// processing read out of the UPID — a true dataflow dependence
		// between the two routines.
		d := &ops[deliveryLo]
		if d.Dep1 == 0 {
			d.Dep1 = 1
		} else if d.Dep2 == 0 {
			d.Dep2 = 1
		}
	}
	s.deliveryHi = len(ops) - 1
	for _, op := range s.intr.Handler {
		if op.Mispredict {
			panic("cpu: mispredicting branches are not supported inside interrupt handlers")
		}
		ops = append(ops, isa.Decode(op).WithSource(isa.SrcHandler))
	}
	for _, op := range cfg.Ucode.Uiret.Ops {
		ops = append(ops, isa.Decode(op).WithSource(isa.SrcIntrUcode))
	}
	if len(ops) == 0 {
		panic("cpu: empty interrupt sequence; configure Ucode")
	}
	s.seqOps = ops
}

// beginInjection switches the front-end to the interrupt sequence.
func (c *Core) beginInjection() {
	c.cur.injectPos = 0
	c.cur.injected = true
	c.cur.firstSeq = 0
	c.cur.waitBoundary = false
}

// ---- commit --------------------------------------------------------------

func (c *Core) commit() {
	for n := 0; n < c.cfg.RetireWidth && c.head < c.tail; n++ {
		e := &c.ent[c.head&c.entMask]
		if e.state != stDone || e.doneAt > c.cycle {
			return
		}
		c.retire(e)
		c.head++
		c.didWork = true
	}
}

func (c *Core) retire(e *robEntry) {
	switch e.op.Class {
	case isa.Load:
		c.lqCount--
	case isa.Store:
		c.sqCount--
	}
	if e.op.Is(isa.FWritesSP) && len(c.spWriters) > 0 && c.spWriters[0] == e.seq {
		c.spWriters = c.spWriters[1:]
	}
	if e.op.Src() == isa.SrcProgram {
		c.committedProgram++
		c.commitPos = e.streamPos + 1
		if c.OnProgramCommit != nil {
			c.OnProgramCommit(e.streamPos, c.cycle)
		}
		// Trim the replay buffer by advancing the head cursor; the backing
		// array is compacted (not abandoned) so appends reuse its capacity.
		// Decoded tapes fetch by index and never touch buf.
		if c.dec == nil && c.commitPos > c.bufBase {
			trim := c.commitPos - c.bufBase
			if trim > uint64(len(c.buf)-c.bufOff) {
				trim = uint64(len(c.buf) - c.bufOff)
			}
			c.bufOff += int(trim)
			c.bufBase += trim
			if c.bufOff >= 1024 && c.bufOff*2 >= len(c.buf) {
				n := copy(c.buf, c.buf[c.bufOff:])
				c.buf = c.buf[:n]
				c.bufOff = 0
			}
		}
	} else {
		c.committedOther++
		c.commitIntrOp(e)
	}
}

// commitIntrOp advances the interrupt state machine as its ops retire.
func (c *Core) commitIntrOp(e *robEntry) {
	st := c.cur
	if st == nil {
		return
	}
	rec := st.rec
	if !st.committedFirst {
		st.committedFirst = true
		rec.FirstUcodeCommit = c.cycle
		if c.obsv != nil {
			c.obsv.IntrFirstCommit(c.cycle)
		}
	}
	// Identify which index in seqOps this was: entries carry streamPos as
	// the sequence index for interrupt ops.
	idx := int(e.streamPos)
	if idx == st.notifHi {
		rec.NotifDone = c.cycle
		if c.obsv != nil {
			c.obsv.IntrNotifDone(c.cycle)
		}
	}
	if idx == st.deliveryHi {
		rec.DeliveryDone = c.cycle
		if c.obsv != nil {
			c.obsv.IntrDeliveryDone(c.cycle)
		}
	}
	if st.deliveryHi+1 < len(st.seqOps)-cfgUiretLen(c.cfg) {
		// handler exists
		if idx == st.deliveryHi+1 {
			rec.HandlerStart = c.cycle
			if c.obsv != nil {
				c.obsv.IntrHandlerStart(c.cycle)
			}
		}
		if idx == len(st.seqOps)-cfgUiretLen(c.cfg)-1 {
			rec.HandlerDone = c.cycle
			if c.obsv != nil {
				c.obsv.IntrHandlerDone(c.cycle)
			}
		}
	}
	if idx == len(st.seqOps)-1 {
		rec.UiretDone = c.cycle
		if c.obsv != nil {
			c.obsv.IntrUiret(c.cycle)
		}
		c.finishInterrupt()
	}
}

func cfgUiretLen(cfg Config) int { return len(cfg.Ucode.Uiret.Ops) }

func (c *Core) finishInterrupt() {
	c.cur = nil
	c.uifSet = true
	// Posted interrupts in pendQueue are accepted at the top of the next
	// cycle by acceptInterrupts.
}

// ---- issue / execute ------------------------------------------------------

func (c *Core) issue() {
	if c.fast {
		c.issueFast()
		return
	}
	if len(c.iqList) == 0 || c.serializing > 0 {
		return
	}
	// Per-cycle functional-unit slots.
	alu, mul, fpu := c.cfg.IntALUs, c.cfg.IntMults, c.cfg.FPUs
	ld, stp := c.cfg.LoadPorts, c.cfg.StorePorts
	issued := 0
	out := c.iqList[:0]
	blocked := false
	for li, seq := range c.iqList {
		e := &c.ent[seq&c.entMask]
		if e.seq != seq || e.state != stWaiting {
			continue // issued earlier or squashed; drop from the list
		}
		if blocked || issued >= c.cfg.IssueWidth {
			out = append(out, seq)
			continue
		}
		if !c.depsReady(e) {
			out = append(out, seq)
			if e.op.Class == isa.Serialize {
				blocked = true // a waiting serializer stalls younger issue
			}
			continue
		}
		// Functional unit availability.
		keep := false
		switch e.op.Class {
		case isa.IntAlu, isa.Nop, isa.Branch:
			if alu == 0 {
				keep = true
			} else {
				alu--
			}
		case isa.IntMult:
			if mul == 0 {
				keep = true
			} else {
				mul--
			}
		case isa.FPAlu, isa.FPMult:
			if fpu == 0 {
				keep = true
			} else {
				fpu--
			}
		case isa.Load:
			if ld == 0 {
				keep = true
			} else {
				ld--
			}
		case isa.Store:
			if stp == 0 {
				keep = true
			} else {
				stp--
			}
		case isa.Serialize:
			// Issues only from the head (all older committed).
			if seq != c.head {
				keep = true
				blocked = true
			}
		}
		if keep {
			out = append(out, seq)
			continue
		}
		lat := int(e.op.Lat)
		if e.op.Class == isa.Load {
			if e.op.Is(isa.FShared) {
				lat = c.mem.SharedLoad(e.op.Addr)
			} else {
				lat = c.mem.Load(e.op.Addr)
			}
			lat += int(e.op.Lat) // extra modelled cost on top of cache
		} else if e.op.Class == isa.Store {
			if e.op.Is(isa.FShared) {
				c.mem.SharedStore(e.op.Addr)
			} else {
				c.mem.Store(e.op.Addr)
			}
		}
		e.state = stIssued
		e.doneAt = c.cycle + uint64(lat)
		c.scheduleDone(e.doneAt, seq)
		c.iqCount--
		issued++
		c.didWork = true
		if e.op.Class == isa.Serialize {
			c.serializing++
			// Nothing younger issues while it executes; keep the rest.
			out = append(out, c.iqList[li+1:]...)
			c.iqList = out
			return
		}
	}
	c.iqList = out
}

func (c *Core) depsReady(e *robEntry) bool {
	return c.depDone(e.dep1) && c.depDone(e.dep2) && c.depDone(e.depSP)
}

func (c *Core) depDone(seq uint64) bool {
	if seq == 0 || seq < c.head {
		return true
	}
	p := &c.ent[seq&c.entMask]
	if p.seq != seq {
		return true // squashed producer; value comes from refetch ordering
	}
	if p.state == stDone {
		return true
	}
	return p.state == stIssued && p.doneAt <= c.cycle
}

// resolveMispredict squashes everything younger than the branch and
// redirects fetch. For Tracked interrupts it re-arms the injection state
// machine (§4.2: "the interrupt processing microcode will remain the
// default misspeculation recovery path until the first interrupt micro-op
// commits").
func (c *Core) resolveMispredict(branch *robEntry) {
	bseq := branch.seq
	n := int(c.tail - (bseq + 1))
	if n < 0 {
		n = 0
	}
	intrSquashed := false
	for s := bseq + 1; s < c.tail; s++ {
		e := &c.ent[s&c.entMask]
		c.releaseSquashed(e)
		if e.op.Src() != isa.SrcProgram {
			intrSquashed = true
		}
	}
	c.tail = bseq + 1
	c.compactIQ(bseq)
	if c.barrierSeq > bseq {
		c.barrierSeq = 0
	}
	// Rewind SP writers younger than the branch.
	for len(c.spWriters) > 0 && c.spWriters[len(c.spWriters)-1] > bseq {
		c.spWriters = c.spWriters[:len(c.spWriters)-1]
	}
	// Redirect program fetch to the op after the branch. With a decoded
	// tape, progDone is a pure function of fetchPos — recompute it after
	// the rewind (the buf path keeps it sticky and replays from buf).
	c.fetchPos = branch.streamPos + 1
	if c.dec != nil {
		c.progDone = c.fetchPos >= uint64(len(c.dec.Ops))
	}
	squashCycles := uint64((n + c.cfg.SquashWidth - 1) / c.cfg.SquashWidth)
	c.fetchStallUntil = c.cycle + squashCycles + uint64(c.cfg.FrontEndDepth)

	if c.cur != nil && intrSquashed && !c.cur.committedFirst {
		st := c.cur
		st.injected = false
		st.rec.Reinjections++
		if !c.cfg.TrackedReinject {
			// Ablation: the interrupt is lost.
			st.rec.Lost = true
			c.cur = nil
			c.uifSet = true
			if c.obsv != nil {
				c.obsv.IntrLost(c.cycle)
			}
		} else if c.cfg.SafepointMode {
			// The safepoint we injected at was on the squashed path; wait
			// for the next one (§4.4).
			st.waitBoundary = true
		} else {
			// Re-inject immediately: the microcode is the recovery path.
			c.beginInjection()
		}
	}
}

func (c *Core) releaseSquashed(e *robEntry) {
	switch e.state {
	case stWaiting:
		c.iqCount--
	case stIssued:
		// writeback marks completed ops stDone and decrements then; any
		// serializer still stIssued here has not been accounted.
		if e.op.Class == isa.Serialize {
			c.serializing--
		}
	}
	switch e.op.Class {
	case isa.Load:
		c.lqCount--
	case isa.Store:
		c.sqCount--
	}
	if e.op.Src() == isa.SrcProgram {
		c.squashedProgram++
	} else {
		c.squashedOther++
	}
	e.seq = 0 // invalidate for depDone checks
	e.gen = 0 // invalidate fast-engine (seq, gen) references
}

// squashAllInFlight implements the Flush strategy's arrival action.
func (c *Core) squashAllInFlight() {
	for s := c.head; s < c.tail; s++ {
		e := &c.ent[s&c.entMask]
		c.releaseSquashed(e)
	}
	c.tail = c.head
	c.iqList = c.iqList[:0]
	c.readyList = c.readyList[:0]
	c.serQ = c.serQ[:0]
	c.serHead = 0
	c.spWriters = c.spWriters[:0]
	c.barrierSeq = 0
	// Refetch from the oldest uncommitted program op (see the progDone
	// note in resolveMispredict).
	c.fetchPos = c.commitPos
	if c.dec != nil {
		c.progDone = c.fetchPos >= uint64(len(c.dec.Ops))
	}
}

// compactIQ removes issue-queue references younger than bseq.
func (c *Core) compactIQ(bseq uint64) {
	out := c.iqList[:0]
	for _, seq := range c.iqList {
		if seq <= bseq {
			out = append(out, seq)
		}
	}
	c.iqList = out
}

// ---- fetch / rename --------------------------------------------------------

func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	if c.draining {
		return
	}
	// Block-granular fast-forward: decoded program fetch with no
	// injection in progress and no arrival inside the fidelity window
	// renames whole clean basic blocks (fast.go). Both paths rename
	// identically; this is purely a throughput switch.
	if c.dec != nil && c.cur == nil && !c.arrivalSoon() {
		c.fetchFast()
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.barrierSeq != 0 {
			if !c.barrierResolved() {
				return
			}
			c.barrierSeq = 0
		}
		if c.tail-c.head >= uint64(c.cfg.ROBSize) {
			return // ROB full
		}
		if c.iqCount >= c.cfg.IQSize {
			return
		}
		op, src, ok := c.nextFetchOp()
		if !ok {
			return
		}
		switch op.Class {
		case isa.Load:
			if c.lqCount >= c.cfg.LQSize {
				c.unfetch(src)
				return
			}
		case isa.Store:
			if c.sqCount >= c.cfg.SQSize {
				c.unfetch(src)
				return
			}
		}
		c.rename(op, src)
	}
}

// fetchSrc says where nextFetchOp took the op from, so resource-full
// conditions can push it back.
type fetchSrc struct {
	program bool
	pos     uint64 // stream pos (program) or seqOps index (interrupt)
}

// nextFetchOp returns the next op the front-end would fetch.
func (c *Core) nextFetchOp() (isa.UOp, fetchSrc, bool) {
	// Active interrupt injection takes priority.
	if st := c.cur; st != nil && st.injected && st.injectPos < len(st.seqOps) {
		op := st.seqOps[st.injectPos]
		src := fetchSrc{program: false, pos: uint64(st.injectPos)}
		st.injectPos++
		return op, src, true
	}
	// Program fetch (possibly gated by a pending tracked interrupt
	// waiting for a boundary/safepoint).
	op, ok := c.peekProgram()
	if !ok {
		return isa.UOp{}, fetchSrc{}, false
	}
	if st := c.cur; st != nil && st.waitBoundary {
		atBoundary := op.Is(isa.FBoundary)
		if c.cfg.SafepointMode {
			// A decoded tape may be a safepoint view, whose prefix is
			// derived from the position rather than stored in the op.
			sp := op.Is(isa.FSafepoint)
			if c.dec != nil {
				sp = c.dec.SafepointAt(c.fetchPos)
			}
			atBoundary = atBoundary && sp
		}
		if atBoundary {
			st.waitBoundary = false
			c.beginInjection()
			// Deliver the first ucode op this fetch slot instead.
			uop := st.seqOps[0]
			st.injectPos = 1
			return uop, fetchSrc{program: false, pos: 0}, true
		}
	}
	c.consumeProgram()
	return op, fetchSrc{program: true, pos: c.fetchPos - 1}, true
}

// peekProgram returns the op at fetchPos without consuming it. With a
// decoded tape, fetchPos indexes the tape directly; otherwise ops are
// decoded once as they are pulled from the stream into the replay
// buffer.
func (c *Core) peekProgram() (isa.UOp, bool) {
	if c.dec != nil {
		if c.fetchPos < uint64(len(c.dec.Ops)) {
			return c.dec.Ops[c.fetchPos], true
		}
		c.progDone = true
		return isa.UOp{}, false
	}
	idx := c.bufOff + int(c.fetchPos-c.bufBase)
	for idx >= len(c.buf) {
		if c.progDone {
			return isa.UOp{}, false
		}
		op, ok := c.prog.Next()
		if !ok {
			c.progDone = true
			return isa.UOp{}, false
		}
		c.buf = append(c.buf, isa.Decode(op))
	}
	return c.buf[idx], true
}

func (c *Core) consumeProgram() { c.fetchPos++ }

// unfetch pushes back an op that could not be renamed this cycle.
func (c *Core) unfetch(src fetchSrc) {
	if src.program {
		c.fetchPos--
	} else if c.cur != nil {
		c.cur.injectPos--
	}
}

// rename allocates the ROB entry and resolves dependences.
func (c *Core) rename(op isa.UOp, src fetchSrc) {
	seq := c.tail
	c.tail++
	e := &c.ent[seq&c.entMask]
	c.genCtr++
	*e = robEntry{seq: seq, gen: c.genCtr, op: op, state: stWaiting}
	c.iqCount++
	c.fetchedTotal++
	c.didWork = true
	switch op.Class {
	case isa.Load:
		c.lqCount++
	case isa.Store:
		c.sqCount++
	}

	if src.program {
		e.streamPos = src.pos
		c.posSeq[src.pos&c.posMask] = seq
		e.dep1 = c.progDep(src.pos, op.Dep1)
		e.dep2 = c.progDep(src.pos, op.Dep2)
	} else {
		e.streamPos = src.pos // seqOps index, used by commitIntrOp
		if st := c.cur; st != nil && st.firstSeq == 0 {
			st.firstSeq = seq
			st.rec.InjectStart = c.cycle
			if c.obsv != nil {
				c.obsv.IntrInject(c.cycle, st.rec.Reinjections > 0)
			}
		}
		// Routine-internal deps are consecutive-seq by construction.
		if op.Dep1 != 0 {
			e.dep1 = seq - uint64(op.Dep1)
		}
		if op.Dep2 != 0 {
			e.dep2 = seq - uint64(op.Dep2)
		}
	}
	if op.Is(isa.FReadsSP) && len(c.spWriters) > 0 {
		e.depSP = c.spWriters[len(c.spWriters)-1]
	}
	if op.Is(isa.FWritesSP) {
		c.spWriters = append(c.spWriters, seq)
	}
	if op.Is(isa.FFetchBarrier) {
		c.barrierSeq = seq
	}
	if c.fast {
		c.enqueueFast(e)
	} else {
		c.iqList = append(c.iqList, seq)
	}
}

// barrierResolved reports whether the outstanding fetch-barrier op has
// executed (or retired, or been squashed).
func (c *Core) barrierResolved() bool {
	if c.barrierSeq < c.head {
		return true // already committed
	}
	e := &c.ent[c.barrierSeq&c.entMask]
	if e.seq != c.barrierSeq {
		return true // squashed; re-injection re-arms as needed
	}
	return e.state == stDone || (e.state == stIssued && e.doneAt <= c.cycle)
}

// progDep maps a backwards stream distance to the producer's in-flight seq,
// or 0 when the producer already committed.
func (c *Core) progDep(pos uint64, dist uint32) uint64 {
	if dist == 0 {
		return 0
	}
	d := uint64(dist)
	if d > pos {
		return 0 // reaches before the start of the stream
	}
	q := pos - d
	if q < c.commitPos {
		return 0
	}
	if pos-q >= uint64(len(c.posSeq)) {
		return 0 // beyond the tracking window: treat as satisfied
	}
	return c.posSeq[q&c.posMask]
}

// InFlight returns the number of micro-ops currently in the window.
func (c *Core) InFlight() int { return int(c.tail - c.head) }

// String summarises core state for debugging.
func (c *Core) String() string {
	return fmt.Sprintf("cycle=%d inflight=%d committed(prog=%d other=%d) squashed(prog=%d other=%d)",
		c.cycle, c.InFlight(), c.committedProgram, c.committedOther, c.squashedProgram, c.squashedOther)
}
