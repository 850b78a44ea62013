// Package shard couples N single-goroutine event kernels (sim.Simulator
// instances) into one deterministic simulation using conservative
// time-window synchronization (DESIGN.md §13).
//
// Partitioning is logical: a sharded machine assigns each shard a disjoint
// group of simulated cores, its own event queue, and its own RNG stream.
// Shards advance in bounded epochs. Each epoch covers the half-open window
// [T, T+L) where T is the minimum next-event time across shards and L —
// the lookahead — is the minimum cross-shard delivery latency. Within an
// epoch each shard runs to the window's end in turn, shard 0 first, and
// touches no other shard's state; cross-shard traffic (senduipi,
// forwarded KB_Timer and NIC interrupts) is buffered in one outbox per
// source shard and exchanged at the epoch barrier, merged in (timestamp,
// source shard, sequence) order. Because every message carries a delivery
// timestamp ≥ the epoch boundary, no shard can observe an event out of
// order.
//
// Everything runs on the caller's goroutine: the package is under the
// single-goroutine contract (xuivet sgoroutine) like the kernel itself.
package shard

import (
	"fmt"
	"sort"

	"xui/internal/sim"
)

// seedStride separates per-shard RNG streams (splitmix64's increment).
const seedStride = 0x9E3779B97F4A7C15

// Msg is one cross-shard message: fn runs on the destination shard's
// kernel at time when. Messages are merged at epoch barriers in
// (when, src, seq) order; seq is per-source-shard and monotonic, so the
// order is total.
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

	running  bool     // inside RunUntil/Run
	epochEnd sim.Time // current epoch's exclusive bound
	epochs   uint64

	// One outbox per source shard; each message names its destination.
	// All are drained at the barrier. seqs/sent are per source shard.
	out  [][]Msg
	seqs []uint64
	sent []uint64

	merged []Msg     // barrier scratch, reused across epochs
	sorter msgSorter // preallocated sort.Interface over merged
}

// New builds an engine with n shard kernels. Shard i's RNG stream is
// derived deterministically from seed and i. The lookahead is the minimum
// cross-shard delivery latency the model guarantees (for a sharded
// machine: bus latency + interconnect latency); it must be ≥ 1.
func New(seed uint64, n int, lookahead sim.Time) *Engine {
	if n < 1 {
		panic("shard: need at least one shard")
	}
	if lookahead < 1 {
		panic("shard: lookahead must be >= 1 cycle")
	}
	e := &Engine{
		sims:      make([]*sim.Simulator, n),
		lookahead: lookahead,
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

// Send queues fn to run on shard dst at absolute time when, on behalf of
// code currently executing on shard src. During a run, when must be at or
// past the current epoch's end — the conservative-synchronization
// guarantee; a violation means the model's cross-shard latency dropped
// below the engine's lookahead and is a bug, so it panics. Outside a run
// (setup), the message is scheduled directly.
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

// push appends to src's outbox.
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
// pin closures.
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
// order, and schedule every message on its destination shard.
// Destination-kernel sequence numbers are assigned in merge order, so
// same-cycle messages keep the (when, src, seq) order inside the
// destination queue.
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

// epoch runs every shard kernel, in shard order, through [its clock, end).
func (e *Engine) epoch(end sim.Time) {
	e.epochEnd = end
	e.epochs++
	for _, s := range e.sims {
		s.RunBefore(end)
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
	for {
		t, ok := e.nextWhen()
		if !ok {
			break
		}
		e.epoch(t + e.lookahead)
		e.exchange()
	}
	e.running = false
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
