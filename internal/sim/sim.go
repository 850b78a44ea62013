// Package sim provides the discrete-event simulation kernel shared by all
// xui system models.
//
// Time is measured in CPU cycles of the simulated 2 GHz machine (1 cycle =
// 0.5 ns). The kernel is deliberately small: an event heap, a clock, and a
// handful of conveniences (periodic events, cancellation, deterministic
// randomness). Everything else — cores, NICs, timers, runtimes — is built on
// top of it in sibling packages.
//
// The event path is allocation-free in steady state: Event objects come
// from per-simulator slabs, fired one-shot and cancelled events return to
// a free list, and the heap's backing array is preallocated and reused.
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
	seq     uint64 // tie-break: FIFO among same-cycle events
	index   int    // heap index, -1 when not queued
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

// initialHeapCap presizes the event heap so typical models never grow it.
const initialHeapCap = 128

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
	now    Time
	queue  []*Event // binary min-heap on (when, seq)
	seq    uint64
	nFired uint64
	rng    *RNG
	probe  Probe

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
		queue: make([]*Event, 0, initialHeapCap),
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
func (s *Simulator) Pending() int { return len(s.queue) }

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

// ---- event heap -----------------------------------------------------------

func (s *Simulator) heapLess(i, j int) bool {
	a, b := s.queue[i], s.queue[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (s *Simulator) heapSwap(i, j int) {
	s.queue[i], s.queue[j] = s.queue[j], s.queue[i]
	s.queue[i].index = i
	s.queue[j].index = j
}

func (s *Simulator) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			break
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Simulator) heapDown(i int) {
	n := len(s.queue)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.heapLess(l, small) {
			small = l
		}
		if r < n && s.heapLess(r, small) {
			small = r
		}
		if small == i {
			return
		}
		s.heapSwap(i, small)
		i = small
	}
}

func (s *Simulator) heapPush(e *Event) {
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.heapUp(e.index)
}

func (s *Simulator) heapPopMin() *Event {
	e := s.queue[0]
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue[0].index = 0
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if n > 0 {
		s.heapDown(0)
	}
	e.index = -1
	return e
}

// heapRemove deletes the entry at heap index i.
func (s *Simulator) heapRemove(i int) {
	n := len(s.queue) - 1
	e := s.queue[i]
	if i != n {
		s.heapSwap(i, n)
	}
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if i != n {
		s.heapDown(i)
		s.heapUp(i)
	}
	e.index = -1
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

// queueAt takes a pooled event, stamps it (when, seq) and pushes it; the
// caller installs the handler (pooled events come back with both nil).
//
//xui:noalloc
func (s *Simulator) queueAt(when Time) *Event {
	if when < s.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, s.now))
	}
	e := s.alloc()
	e.when = when
	e.seq = s.seq
	e.period = 0
	e.stopped = false
	s.seq++
	s.heapPush(e)
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
		s.heapRemove(e.index)
		if s.probe != nil {
			s.probe.EventCancelled(uint64(s.now))
		}
		s.release(e)
	}
}

// Step dispatches the single earliest event. It reports false when the queue
// is empty.
//
//xui:noalloc
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.heapPopMin()
		if e.stopped {
			continue // defensive: cancelled events leave the heap eagerly
		}
		s.now = e.when
		fn, afn, arg := e.fn, e.afn, e.arg
		periodic := e.period != 0
		if periodic {
			// Re-arm before dispatch so the handler can Cancel it.
			e.when = s.now + e.period
			e.seq = s.seq
			s.seq++
			s.heapPush(e)
		}
		s.nFired++
		if s.probe != nil {
			s.probe.EventFired(uint64(s.now), len(s.queue))
		}
		if afn != nil {
			afn(s.now, arg)
		} else {
			fn(s.now)
		}
		if !periodic {
			// One-shot storage returns to the pool once the handler is
			// done (the handler itself may have Cancel'd the fired event;
			// either way there is no heap entry left).
			s.release(e)
		}
		return true
	}
	return false
}

// Run dispatches events until the queue empties.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// NextWhen returns the time of the earliest pending event. The second
// result is false when the queue is empty. The epoch synchronizer
// (internal/shard) polls this on every shard to derive the next
// conservative time window.
//
//xui:noalloc
func (s *Simulator) NextWhen() (Time, bool) {
	if len(s.queue) == 0 {
		return Never, false
	}
	return s.queue[0].when, true
}

// RunBefore dispatches every event with time strictly less than limit and
// returns the number fired. Unlike RunUntil it does not advance the clock
// to the limit: the clock stays at the last fired event so a later
// Schedule from outside (a cross-shard message at exactly the epoch
// boundary) is still in the future. This is the epoch body used by the
// sharded engine; the half-open window [epoch start, limit) is what makes
// conservative synchronization exact.
func (s *Simulator) RunBefore(limit Time) int {
	fired := 0
	for len(s.queue) > 0 && s.queue[0].when < limit {
		s.Step()
		fired++
	}
	return fired
}

// RunUntil dispatches events with time ≤ deadline, then advances the clock
// to the deadline. Events scheduled exactly at the deadline fire.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
