// Package sim provides the discrete-event simulation kernel shared by all
// xui system models.
//
// Time is measured in CPU cycles of the simulated 2 GHz machine (1 cycle =
// 0.5 ns). The kernel is deliberately small: a sorted event queue, a clock,
// and a handful of conveniences (periodic events, cancellation,
// deterministic randomness). Everything else — cores, NICs, timers,
// runtimes — is built on top of it in sibling packages.
//
// The event path is allocation-free in steady state: Event objects come
// from per-simulator slabs, fired one-shot and cancelled events return to
// a free list, and the queue's buffer is preallocated and reused.
// BenchmarkSimEvent* in this package guard those properties.
//
// An event carries either a plain Handler or an ArgHandler plus one word
// of payload. Hot-path components build their ArgHandler once per object
// and pass per-event data (say, an APIC ID and a vector) in the word, so
// scheduling allocates no closure; see AfterArg.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in cycles.
type Time uint64

// CyclesPerSecond is the simulated clock rate (2 GHz, matching the paper's
// hardware platform and gem5 configuration).
const CyclesPerSecond = 2_000_000_000

// Microsecond is the number of cycles in one simulated microsecond.
const Microsecond Time = CyclesPerSecond / 1_000_000

// Millisecond is the number of cycles in one simulated millisecond.
const Millisecond Time = CyclesPerSecond / 1_000

// Never is a sentinel time that compares after every reachable simulation
// instant.
const Never Time = math.MaxUint64

// Seconds converts a simulated duration to (floating point) seconds.
func (t Time) Seconds() float64 { return float64(t) / CyclesPerSecond }

// Micros converts a simulated duration to (floating point) microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromMicros converts microseconds into cycles, rounding to nearest.
func FromMicros(us float64) Time {
	return Time(math.Round(us * float64(Microsecond)))
}

// Handler is the callback type invoked when an event fires. The handler runs
// with the simulation clock set to the event's time.
type Handler func(now Time)

// ArgHandler is a handler that receives the one-word payload its event
// was scheduled with (ScheduleArg/AfterArg). Build it once per object —
// a method value stored on a field — so the per-event path allocates
// nothing; the payload carries whatever differs between events.
type ArgHandler func(now Time, arg uint64)

// Event is a scheduled occurrence. A zero Event is invalid; events are
// created through Simulator.Schedule and friends.
//
// Event storage is pooled: once a one-shot event has fired, or any event
// has been cancelled, its *Event may be reused by a later Schedule. Hold a
// returned *Event only while you know the event is still pending (the
// pattern every component in this repo follows: clear the reference from
// the event's own handler, and Cancel only events that have not fired).
// Cancel and Pending on a retired-but-not-yet-reused pointer remain safe
// no-ops.
type Event struct {
	when    Time
	index   int // absolute slot in Simulator.queue, -1 when not queued
	fn      Handler
	afn     ArgHandler // set instead of fn by ScheduleArg/AfterArg
	arg     uint64     // afn's payload
	period  Time       // 0 for one-shot
	stopped bool
}

// When returns the time the event is scheduled to fire. For periodic events
// this is the next firing.
func (e *Event) When() Time { return e.when }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 && !e.stopped }

// eventSlabSize is how many Events one backing allocation holds; the free
// list refills from slabs so steady-state scheduling allocates nothing.
const eventSlabSize = 64

// initialQueueCap presizes the event queue's buffer so typical models
// never grow it.
const initialQueueCap = 128

// Probe receives kernel-level scheduling events for observability. Times
// are plain uint64 cycles so implementations (internal/obs) need not import
// this package. All methods are invoked synchronously on the simulation
// thread; a nil probe (the default) costs one predictable branch per event.
type Probe interface {
	// EventScheduled fires when an event is queued (Schedule/After/Every;
	// periodic re-arms are not re-counted).
	EventScheduled(now, when uint64)
	// EventFired fires as each event dispatches, with the queue depth
	// remaining at that instant.
	EventFired(when uint64, pending int)
	// EventCancelled fires when a pending event is cancelled.
	EventCancelled(now uint64)
}

// Simulator is a single-threaded discrete-event simulator. The concurrency
// contract is one goroutine per Simulator instance: a Simulator is never
// safe for concurrent use, and within one simulation concurrency is
// modelled with events, not goroutines. Cross-run parallelism — running
// many independent Simulators at once, as the experiment sweeps do — goes
// through internal/sweep, which gives each job its own Simulator and
// merges results deterministically.
type Simulator struct {
	now Time
	// queue[head:tail] is the pending-event window in dispatch order;
	// see push. The rest of the buffer is spare.
	queue      []*Event
	head, tail int
	nFired     uint64
	rng        *RNG
	probe      Probe
	// end is one past the last instant the running Run/RunUntil/
	// RunBefore call will dispatch (Never under Run), and 0 outside any
	// Run call; Horizon reads it.
	end Time

	free []*Event // retired events awaiting reuse
	slab []Event  // bump-allocation backing for new events
}

// SetProbe attaches an observability probe (nil detaches). Pass a concrete
// non-nil implementation; observability is opt-in and off by default.
func (s *Simulator) SetProbe(p Probe) { s.probe = p }

// New returns a simulator whose clock starts at zero, with a deterministic
// random stream derived from seed.
func New(seed uint64) *Simulator {
	return &Simulator{
		rng:   NewRNG(seed),
		queue: make([]*Event, initialQueueCap),
	}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// RNG returns the simulator's deterministic random stream.
func (s *Simulator) RNG() *RNG { return s.rng }

// Fired returns the number of events dispatched so far (useful in tests and
// for progress accounting).
func (s *Simulator) Fired() uint64 { return s.nFired }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.tail - s.head }

// ---- event pool -----------------------------------------------------------

// alloc takes an Event from the free list, refilling from slab storage.
//
//xui:noalloc
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	if len(s.slab) == 0 {
		s.slab = make([]Event, eventSlabSize) //xui:alloc slab refill, amortised over eventSlabSize events
	}
	e := &s.slab[0]
	s.slab = s.slab[1:]
	return e
}

// release retires an event to the free list. The handler references are
// dropped so pooled events do not pin closures.
func (s *Simulator) release(e *Event) {
	e.fn = nil
	e.afn = nil
	e.period = 0
	e.index = -1
	e.stopped = true // stale Cancel on the retired pointer stays a no-op
	s.free = append(s.free, e)
}

// ---- event queue ----------------------------------------------------------
//
// The queue is a sorted window queue[head:tail] over one reused buffer,
// ascending by when and in insertion order within a cycle. The models keep
// it shallow (TestRegistryQueueDepth in internal/experiments pins the
// bound), and at that depth a backward scan over contiguous pointers is
// cheaper than a heap's sifts (DESIGN.md §7 has the crossover).
// Each push lands behind every entry due at or before it, and every entry
// already queued was pushed earlier, so the window is exactly (when,
// insertion) order — FIFO among same-cycle events — with no sequence
// number to store. Slots outside the window hold stale pointers into the
// simulator's own event pool; they pin nothing the pool does not.

// push inserts e behind every queued entry due at or before e.when.
//
//xui:noalloc
func (s *Simulator) push(e *Event) {
	if s.tail == len(s.queue) {
		s.compact()
	}
	q := s.queue
	i := s.tail
	s.tail++
	for i > s.head && q[i-1].when > e.when {
		q[i] = q[i-1]
		q[i].index = i
		i--
	}
	q[i] = e
	e.index = i
}

// compact makes room at the buffer's end. It slides the window back to the
// front, or moves it into a buffer twice the size once the window fills
// more than half the old one; so a slide copies at most half a buffer and
// follows at least half a buffer of pushes.
func (s *Simulator) compact() {
	n := s.tail - s.head
	if 2*n > len(s.queue) {
		grown := make([]*Event, 2*len(s.queue)) //xui:alloc queue growth, only when the window outgrows half the buffer
		copy(grown, s.queue[s.head:s.tail])
		s.queue = grown
	} else {
		copy(s.queue, s.queue[s.head:s.tail])
	}
	for i, e := range s.queue[:n] {
		e.index = i
	}
	s.head, s.tail = 0, n
}

// pop removes and returns the earliest entry.
func (s *Simulator) pop() *Event {
	e := s.queue[s.head]
	s.head++
	s.rewindIfEmpty()
	e.index = -1
	return e
}

// remove deletes the entry at absolute slot i, closing the gap from the
// tail side.
func (s *Simulator) remove(i int) {
	q := s.queue
	e := q[i]
	s.tail--
	for ; i < s.tail; i++ {
		q[i] = q[i+1]
		q[i].index = i
	}
	s.rewindIfEmpty()
	e.index = -1
}

// rewindIfEmpty restarts an empty window at the buffer's front, so a queue
// that drains between events never needs compacting.
func (s *Simulator) rewindIfEmpty() {
	if s.head == s.tail {
		s.head, s.tail = 0, 0
	}
}

// ---- scheduling -----------------------------------------------------------

// Schedule queues fn to run at absolute time when. Scheduling in the past
// panics: that is always a model bug.
//
//xui:noalloc
func (s *Simulator) Schedule(when Time, fn Handler) *Event {
	e := s.queueAt(when)
	e.fn = fn
	return e
}

// After queues fn to run delay cycles from now.
//
//xui:noalloc
func (s *Simulator) After(delay Time, fn Handler) *Event {
	return s.Schedule(s.now+delay, fn)
}

// ScheduleArg queues fn(when, arg) to run at absolute time when.
//
//xui:noalloc
func (s *Simulator) ScheduleArg(when Time, fn ArgHandler, arg uint64) *Event {
	e := s.queueAt(when)
	e.afn = fn
	e.arg = arg
	return e
}

// AfterArg queues fn(now, arg) to run delay cycles from now. With fn built
// once per object, this is the allocation-free way to schedule an event
// that needs per-event data.
//
//xui:noalloc
func (s *Simulator) AfterArg(delay Time, fn ArgHandler, arg uint64) *Event {
	return s.ScheduleArg(s.now+delay, fn, arg)
}

// queueAt takes a pooled event, stamps its time and pushes it; the
// caller installs the handler (pooled events come back with both nil).
//
//xui:noalloc
func (s *Simulator) queueAt(when Time) *Event {
	if when < s.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, s.now))
	}
	e := s.alloc()
	e.when = when
	e.period = 0
	e.stopped = false
	s.push(e)
	if s.probe != nil {
		s.probe.EventScheduled(uint64(s.now), uint64(when))
	}
	return e
}

// Every queues fn to run every period cycles, first firing after period.
// Use Cancel on the returned event to stop the series.
//
//xui:noalloc
func (s *Simulator) Every(period Time, fn Handler) *Event {
	if period == 0 {
		panic("sim: zero period")
	}
	e := s.Schedule(s.now+period, fn)
	e.period = period
	return e
}

// Cancel removes an event from the queue and recycles its storage.
// Cancelling an already-fired, already-cancelled or nil event is a no-op.
// For periodic events, the series stops.
//
//xui:noalloc
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.stopped {
		return
	}
	e.stopped = true
	if e.index >= 0 {
		s.remove(e.index)
		if s.probe != nil {
			s.probe.EventCancelled(uint64(s.now))
		}
		s.release(e)
	}
}

// Jump moves the clock and every pending event d cycles later, as if d
// cycles had passed in which nothing was due. A uniform shift keeps the
// queue's order, same-cycle FIFO ties included, and a periodic event
// keeps its period. A handler calls it to carry the model across time it
// knows would repeat (fig6's period skip in internal/experiments): the
// handler goes on at the new Now, and the calling Run* loop continues
// from there. The caller keeps the jump inside the running Run* call's
// window (see Horizon); on a shard's kernel it would break the engine's
// epochs.
//
//xui:noalloc
func (s *Simulator) Jump(d Time) {
	for _, e := range s.queue[s.head:s.tail] {
		if e.when > Never-d {
			panic("sim: pending event shifted past Never")
		}
		e.when += d
	}
	if s.now > Never-d {
		panic("sim: clock jumped past Never")
	}
	s.now += d
}

// Step dispatches the single earliest event. It reports false when the queue
// is empty.
//
//xui:noalloc
func (s *Simulator) Step() bool {
	if s.head == s.tail {
		return false
	}
	// Cancel removes events eagerly, so the head is always live.
	e := s.pop()
	s.now = e.when
	fn, afn, arg := e.fn, e.afn, e.arg
	periodic := e.period != 0
	if periodic {
		// Re-arm before dispatch so the handler can Cancel it.
		e.when = s.now + e.period
		s.push(e)
	}
	s.nFired++
	if s.probe != nil {
		s.probe.EventFired(uint64(s.now), s.Pending())
	}
	if afn != nil {
		afn(s.now, arg)
	} else {
		fn(s.now)
	}
	if !periodic {
		// One-shot storage returns to the pool once the handler is
		// done (the handler itself may have Cancel'd the fired event;
		// either way there is no queue entry left).
		s.release(e)
	}
	return true
}

// Run dispatches events until the queue empties.
func (s *Simulator) Run() {
	s.end = Never
	for s.Step() {
	}
	s.end = 0
}

// NextWhen returns the time of the earliest pending event. The second
// result is false when the queue is empty. The epoch synchronizer
// (internal/shard) polls this on every shard to derive the next
// conservative time window.
//
//xui:noalloc
func (s *Simulator) NextWhen() (Time, bool) {
	if s.head == s.tail {
		return Never, false
	}
	return s.queue[s.head].when, true
}

// Horizon returns the earliest instant anything can next happen: the
// smaller of the next pending event's time and one past the last instant
// the running Run, RunUntil or RunBefore call will dispatch (RunUntil
// includes its deadline, RunBefore excludes its limit; under Run with an
// empty queue it is Never). Outside a Run call — a bare Step, or code
// between runs — it returns Now, since the caller may schedule anything
// next.
//
// A handler may treat every instant in [Now, Horizon) as quiet: no event
// fires and no outside code runs before Horizon, so state the handler
// alone owns cannot change there. l3fwd's poll loop uses this to charge
// a stretch of empty polls at once.
//
//xui:noalloc
func (s *Simulator) Horizon() Time {
	h := s.end
	if s.head < s.tail && s.queue[s.head].when < h {
		h = s.queue[s.head].when
	}
	if h < s.now {
		return s.now
	}
	return h
}

// RunBefore dispatches every event with time strictly less than limit and
// returns the number fired. Unlike RunUntil it does not advance the clock
// to the limit: the clock stays at the last fired event so a later
// Schedule from outside (a cross-shard message at exactly the epoch
// boundary) is still in the future. This is the epoch body used by the
// sharded engine; the half-open window [epoch start, limit) is what makes
// conservative synchronization exact.
func (s *Simulator) RunBefore(limit Time) int {
	s.end = limit
	fired := 0
	for s.head < s.tail && s.queue[s.head].when < limit {
		s.Step()
		fired++
	}
	s.end = 0
	return fired
}

// RunUntil dispatches events with time ≤ deadline, then advances the clock
// to the deadline. Events scheduled exactly at the deadline fire.
func (s *Simulator) RunUntil(deadline Time) {
	s.end = Never
	if deadline < Never {
		s.end = deadline + 1
	}
	for s.head < s.tail && s.queue[s.head].when <= deadline {
		s.Step()
	}
	s.end = 0
	if s.now < deadline {
		s.now = deadline
	}
}
