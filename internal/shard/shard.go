// Package shard couples N single-goroutine event kernels (sim.Simulator
// instances) into one deterministic parallel simulation using conservative
// time-window synchronization (DESIGN.md §13).
//
// Partitioning is logical: a sharded machine assigns each shard a disjoint
// group of simulated cores, its own slab/free-list event queue, and its own
// RNG stream. Shards advance in bounded epochs. Each epoch covers the
// half-open window [T, T+L) where T is the minimum next-event time across
// shards and L — the lookahead — is the minimum cross-shard delivery
// latency. Within an epoch every shard runs independently (no shared
// mutable state); cross-shard traffic (senduipi, forwarded KB_Timer and
// NIC interrupts) is buffered in one single-producer outbox per source
// shard and exchanged at the epoch barrier, merged in (timestamp, source
// shard, sequence) order.
// Because every message carries a delivery timestamp ≥ the epoch boundary,
// no shard can observe an event out of order, and the merge key is a total
// order independent of how many worker goroutines executed the epoch:
// results are byte-identical at any worker count, including one.
//
// The single-goroutine contract (xuivet sgoroutine) is per shard kernel:
// inside an epoch each Simulator is still owned by exactly one goroutine,
// and ownership transfer between epochs is synchronized through the
// barrier. This package is the one place in the simulator allowed to use
// go statements, channels and sync primitives, each site waived with
// //xui:parallel <reason> and audited like every other waiver.
package shard

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic" //xui:parallel epoch work-claiming counter; the only shared word during an epoch

	"xui/internal/sim"
)

// seedStride separates per-shard RNG streams (splitmix64's increment).
const seedStride = 0x9E3779B97F4A7C15

// Msg is one cross-shard message: fn runs on the destination shard's
// kernel at time when. Messages are merged at epoch barriers in
// (when, src, seq) order; seq is per-source-shard and monotonic, so the
// order is total and independent of worker scheduling.
type Msg struct {
	when sim.Time
	seq  uint64
	src  int32
	dst  int32
	fn   sim.Handler
}

// Engine owns the shard kernels and the epoch synchronizer.
type Engine struct {
	sims      []*sim.Simulator
	lookahead sim.Time
	workers   int

	running  bool     // inside RunUntil/Run (coordinator-only)
	epochEnd sim.Time // current epoch's exclusive bound
	epochs   uint64
	barrier  func() // optional post-exchange hook (obs lane flush)

	// One outbox per source shard; each message names its destination.
	// During an epoch, outbox src is written only by the goroutine running
	// shard src; all are drained by the coordinator at the barrier.
	// seqs/sent are likewise source-owned.
	out  [][]Msg  //xui:producer push,pop
	seqs []uint64 //xui:producer push
	sent []uint64 //xui:producer push

	merged []Msg     // barrier scratch, reused across epochs
	sorter msgSorter // preallocated sort.Interface over merged

	// claim is the shared epoch-work counter: each worker atomically takes
	// the next unclaimed shard index until none remain.
	claim atomic.Int64
	pool  *workerPool
}

// New builds an engine with n shard kernels. Shard i's RNG stream is
// derived deterministically from seed and i. The lookahead is the minimum
// cross-shard delivery latency the model guarantees (for a sharded
// machine: bus latency + interconnect latency); it must be ≥ 1. workers
// caps the goroutines used per epoch — results are identical at any
// value, 1 runs fully inline with no goroutines at all.
func New(seed uint64, n int, lookahead sim.Time, workers int) *Engine {
	if n < 1 {
		panic("shard: need at least one shard")
	}
	if lookahead < 1 {
		panic("shard: lookahead must be >= 1 cycle")
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine{
		sims:      make([]*sim.Simulator, n),
		lookahead: lookahead,
		workers:   workers,
		out:       make([][]Msg, n),
		seqs:      make([]uint64, n),
		sent:      make([]uint64, n),
	}
	for i := range e.sims {
		e.sims[i] = sim.New(seed + uint64(i)*seedStride)
	}
	e.sorter.msgs = &e.merged
	return e
}

// Shards returns the number of shard kernels.
func (e *Engine) Shards() int { return len(e.sims) }

// Shard returns shard i's event kernel.
func (e *Engine) Shard(i int) *sim.Simulator { return e.sims[i] }

// Lookahead returns the epoch window length in cycles.
func (e *Engine) Lookahead() sim.Time { return e.lookahead }

// Workers returns the configured worker-goroutine cap.
func (e *Engine) Workers() int { return e.workers }

// Epochs returns how many epoch barriers have executed.
func (e *Engine) Epochs() uint64 { return e.epochs }

// Sent returns the total cross-shard messages carried so far.
func (e *Engine) Sent() uint64 {
	var total uint64
	for _, n := range e.sent {
		total += n
	}
	return total
}

// Fired returns total events dispatched across all shard kernels.
func (e *Engine) Fired() uint64 {
	var total uint64
	for _, s := range e.sims {
		total += s.Fired()
	}
	return total
}

// SetBarrierHook installs fn to run (on the coordinator goroutine, after
// the message exchange) at every epoch barrier. The sharded machine uses
// it to flush per-shard tracer lanes in deterministic order.
func (e *Engine) SetBarrierHook(fn func()) { e.barrier = fn }

// Send queues fn to run on shard dst at absolute time when, on behalf of
// code currently executing on shard src. During a run, when must be at or
// past the current epoch's end — the conservative-synchronization
// guarantee; a violation means the model's cross-shard latency dropped
// below the engine's lookahead and is a bug, so it panics. Outside a run
// (single-goroutine setup), the message is scheduled directly.
//
//xui:noalloc
//xui:crosssend
func (e *Engine) Send(src, dst int, when sim.Time, fn sim.Handler) {
	if !e.running {
		e.sims[dst].Schedule(when, fn)
		return
	}
	if when < e.epochEnd {
		panic(fmt.Sprintf("shard: cross-shard send %d→%d at %d inside epoch ending %d; model latency < engine lookahead %d",
			src, dst, when, e.epochEnd, e.lookahead))
	}
	e.push(src, dst, when, fn)
}

// push appends to src's outbox. Only the goroutine running shard src in
// the current epoch calls this, so each outbox is single-producer.
//
//xui:noalloc
func (e *Engine) push(src, dst int, when sim.Time, fn sim.Handler) {
	box := &e.out[src]
	*box = append(*box, Msg{
		when: when,
		seq:  e.seqs[src],
		src:  int32(src),
		dst:  int32(dst),
		fn:   fn,
	})
	e.seqs[src]++
	e.sent[src]++
}

// pop drains every outbox into the merge scratch in source order
// (re-sorted by the total key afterwards, so the drain order never
// matters) and clears handler references so pooled backing arrays do not
// pin closures. Coordinator-only.
//
//xui:noalloc
func (e *Engine) pop() {
	e.merged = e.merged[:0]
	for i := range e.out {
		box := e.out[i]
		for j := range box {
			e.merged = append(e.merged, box[j])
			box[j].fn = nil
		}
		e.out[i] = box[:0]
	}
}

// exchange runs the epoch barrier: drain outboxes, sort by the total
// order, schedule every message on its destination shard, then run the
// barrier hook. Destination-kernel sequence numbers are assigned in merge
// order, so same-cycle messages keep the (when, src, seq) order inside the
// destination heap.
func (e *Engine) exchange() {
	e.pop()
	if len(e.merged) > 1 {
		sort.Sort(&e.sorter)
	}
	for i := range e.merged {
		m := &e.merged[i]
		e.sims[m.dst].Schedule(m.when, m.fn)
		m.fn = nil
	}
	if e.barrier != nil {
		e.barrier()
	}
}

// nextWhen returns the earliest pending event time across shards.
func (e *Engine) nextWhen() (sim.Time, bool) {
	t, any := sim.Never, false
	for _, s := range e.sims {
		if w, ok := s.NextWhen(); ok && w < t {
			t, any = w, true
		}
	}
	return t, any
}

// epoch runs every shard kernel through [its clock, end), in parallel when
// a worker pool is live.
func (e *Engine) epoch(end sim.Time) {
	e.epochEnd = end
	e.epochs++
	if e.pool == nil {
		for _, s := range e.sims {
			s.RunBefore(end)
		}
		return
	}
	e.claim.Store(0)
	e.pool.release(end)
	e.epochWork()
	e.pool.await()
}

// epochWork claims unrun shards and runs them through the current epoch.
// Called concurrently by the coordinator and every pool worker; the claim
// counter guarantees each shard runs on exactly one goroutine per epoch.
func (e *Engine) epochWork() {
	end := e.epochEnd
	for {
		i := int(e.claim.Add(1)) - 1
		if i >= len(e.sims) {
			return
		}
		e.sims[i].RunBefore(end)
	}
}

// RunUntil advances the whole sharded simulation to deadline: every event
// with time ≤ deadline fires, in epoch steps, and every shard clock ends
// at deadline. deadline must be < sim.Never.
func (e *Engine) RunUntil(deadline sim.Time) {
	if len(e.sims) == 1 {
		// One shard degenerates to the plain kernel: no epochs, no
		// barriers. Send still works (scheduled directly).
		e.sims[0].RunUntil(deadline)
		return
	}
	e.running = true
	stop := e.startPool()
	for {
		t, ok := e.nextWhen()
		if !ok || t > deadline {
			break
		}
		end := t + e.lookahead
		if end > deadline {
			// Stretch the last window one past the deadline so events at
			// exactly the deadline fire (RunBefore is exclusive).
			end = deadline + 1
		}
		e.epoch(end)
		e.exchange()
	}
	stop()
	e.running = false
	for _, s := range e.sims {
		s.RunUntil(deadline)
	}
}

// Run advances the simulation until every shard kernel is quiescent.
func (e *Engine) Run() {
	if len(e.sims) == 1 {
		e.sims[0].Run()
		return
	}
	e.running = true
	stop := e.startPool()
	for {
		t, ok := e.nextWhen()
		if !ok {
			break
		}
		e.epoch(t + e.lookahead)
		e.exchange()
	}
	stop()
	e.running = false
}

// ---- worker pool -----------------------------------------------------------

// workerPool is the per-run set of epoch workers. Coordinator hands each
// worker the epoch bound over its start channel, workers claim shards via
// Engine.claim, and signal completion on done; those channel operations
// are the happens-before edges that hand shard-kernel ownership between
// goroutines across epochs.
type workerPool struct {
	start []chan sim.Time //xui:parallel release + completion channels; barrier protocol, not model state
	done  chan struct{}
	// panicked buffers worker panics (one slot per worker) so a panicking
	// worker can still arrive at the barrier instead of deadlocking the
	// coordinator; await re-raises on the coordinator goroutine.
	panicked chan workerPanic //xui:parallel panic hand-off from workers to the coordinator
}

// workerPanic carries a recovered worker panic, stack included, to the
// coordinator for deterministic re-raising.
type workerPanic struct {
	val   any
	stack []byte
}

// startPool spawns the epoch workers for one run and returns the function
// that winds them down. With one worker (or one shard) no goroutines are
// created and epochs run fully inline.
func (e *Engine) startPool() (stop func()) {
	w := e.workers
	if w > len(e.sims) {
		w = len(e.sims)
	}
	if w <= 1 {
		return func() {}
	}
	p := &workerPool{
		start:    make([]chan sim.Time, w-1), //xui:parallel building the barrier-protocol channels
		done:     make(chan struct{}),
		panicked: make(chan workerPanic, w-1), //xui:parallel buffered one slot per worker: a panic send never blocks
	}
	for i := range p.start {
		p.start[i] = make(chan sim.Time) //xui:parallel worker channel + epoch worker; owns one shard at a time via the claim counter
		go e.runWorker(p, p.start[i])
	}
	e.pool = p
	return func() {
		for _, c := range p.start {
			close(c) //xui:parallel wind down the epoch workers at end of run
		}
		for range p.start {
			<-p.done //xui:parallel join: every worker acknowledges shutdown
		}
		e.pool = nil
	}
}

// runWorker is one epoch worker's loop: wait for release, claim and run
// shards, report at the barrier; a closed start channel ends the run. A
// panic inside a shard kernel is recovered, handed to the coordinator, and
// the worker still arrives at the barrier — otherwise await would deadlock
// and the panic would kill the whole process instead of failing the run.
//
//xui:parallel worker loop signature; carries the barrier-protocol channels
func (e *Engine) runWorker(p *workerPool, start chan sim.Time) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked <- workerPanic{val: r, stack: debug.Stack()} //xui:parallel buffered panic hand-off; covers the barrier arrival below too
			p.done <- struct{}{}                                    // barrier arrival even on panic, so await returns
		}
	}()
	for range start { //xui:parallel block until the coordinator releases the next epoch
		e.epochWork()
		p.done <- struct{}{} //xui:parallel barrier arrival
	}
	p.done <- struct{}{} //xui:parallel shutdown acknowledgement
}

// release hands the epoch bound to every worker.
func (p *workerPool) release(end sim.Time) {
	for _, c := range p.start {
		c <- end //xui:parallel epoch release; publishes epochEnd and outbox ownership
	}
}

// await blocks until every worker reaches the barrier, then re-raises any
// worker panic on the coordinator goroutine (a dead worker never claims
// another shard, so re-raising before the next release is mandatory).
func (p *workerPool) await() {
	for range p.start {
		<-p.done //xui:parallel barrier wait; re-acquires shard kernels and outboxes
	}
	select { //xui:parallel drain worker panics after the barrier; buffered receive, never blocks
	case wp := <-p.panicked:
		panic(fmt.Sprintf("shard: epoch worker panicked: %v\n%s", wp.val, wp.stack))
	default:
	}
}

// ---- merge order -----------------------------------------------------------

// msgSorter sorts the merge scratch by (when, src, seq) — the cross-shard
// total order. It is a preallocated field so sorting allocates nothing.
type msgSorter struct{ msgs *[]Msg }

func (m *msgSorter) Len() int { return len(*m.msgs) }
func (m *msgSorter) Less(i, j int) bool {
	a, b := &(*m.msgs)[i], &(*m.msgs)[j]
	if a.when != b.when {
		return a.when < b.when
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
func (m *msgSorter) Swap(i, j int) {
	s := *m.msgs
	s[i], s[j] = s[j], s[i]
}
