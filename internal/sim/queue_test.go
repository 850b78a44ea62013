package sim

import (
	"slices"
	"sort"
	"testing"
)

// refEvent is one pending event in the reference queue.
type refEvent struct {
	when   Time
	period Time
	id     int
	ev     *Event
}

// queueModel drives a Simulator and a naive reference side by side: the
// reference keeps its pending events in a slice sorted by when, each
// inserted behind its equals, so same-time events stay in insertion order. Every handler pops the
// reference's head and checks it is the event firing, so the dispatch
// order, Pending, NextWhen and Horizon are compared at every dispatch.
type queueModel struct {
	t   *testing.T
	s   *Simulator
	ref []refEvent
	end Time // the running call's end, as Simulator.end holds it
	ids int

	maxDepth, slides int
}

func newQueueModel(t *testing.T) *queueModel {
	return &queueModel{t: t, s: New(1)}
}

// insert adds an event to the reference behind every entry due at or
// before it, found by binary search.
func (m *queueModel) insert(r refEvent) {
	i := sort.Search(len(m.ref), func(i int) bool { return m.ref[i].when > r.when })
	m.ref = slices.Insert(m.ref, i, r)
	if d := len(m.ref); d > m.maxDepth {
		m.maxDepth = d
	}
}

// fire is every event's handler.
func (m *queueModel) fire(now Time, id int) {
	t := m.t
	t.Helper()
	if len(m.ref) == 0 {
		t.Fatalf("event %d fired at %d with the reference queue empty", id, now)
	}
	head := m.ref[0]
	m.ref = m.ref[1:]
	if head.id != id || head.when != now {
		t.Fatalf("fired event %d at %d, reference expects event %d at %d", id, now, head.id, head.when)
	}
	if head.period != 0 {
		head.when += head.period
		m.insert(head)
	}
	m.check()
	want := m.end
	if len(m.ref) > 0 && m.ref[0].when < want {
		want = m.ref[0].when
	}
	if want < now {
		want = now
	}
	if got := m.s.Horizon(); got != want {
		t.Fatalf("Horizon in handler at %d = %d, want %d", now, got, want)
	}
}

// check compares Pending and NextWhen with the reference.
func (m *queueModel) check() {
	t := m.t
	t.Helper()
	if got := m.s.Pending(); got != len(m.ref) {
		t.Fatalf("Pending = %d, reference holds %d", got, len(m.ref))
	}
	when, ok := m.s.NextWhen()
	switch {
	case len(m.ref) == 0 && (ok || when != Never):
		t.Fatalf("NextWhen = %d, %v on an empty queue", when, ok)
	case len(m.ref) > 0 && (!ok || when != m.ref[0].when):
		t.Fatalf("NextWhen = %d, %v, want %d", when, ok, m.ref[0].when)
	}
}

// after schedules a one-shot event, alternating closure and payload
// handlers.
func (m *queueModel) after(delay Time) {
	id := m.ids
	m.ids++
	head := m.s.head
	var ev *Event
	if id%2 == 0 {
		ev = m.s.After(delay, func(now Time) { m.fire(now, id) })
	} else {
		ev = m.s.AfterArg(delay, func(now Time, arg uint64) { m.fire(now, int(arg)) }, uint64(id))
	}
	if m.s.head < head {
		m.slides++
	}
	m.insert(refEvent{when: m.s.Now() + delay, id: id, ev: ev})
}

func (m *queueModel) every(period Time) {
	id := m.ids
	m.ids++
	ev := m.s.Every(period, func(now Time) { m.fire(now, id) })
	m.insert(refEvent{when: m.s.Now() + period, period: period, id: id, ev: ev})
}

func (m *queueModel) cancel(k int) {
	if len(m.ref) == 0 {
		return
	}
	k %= len(m.ref)
	ev := m.ref[k].ev
	m.ref = append(m.ref[:k], m.ref[k+1:]...)
	m.s.Cancel(ev)
	if ev.Pending() {
		m.t.Fatal("cancelled event still pending")
	}
}

// run decodes data two bytes per operation and applies it.
func (m *queueModel) run(data []byte) {
	s := m.s
	for i := 0; i+1 < len(data); i += 2 {
		op, b := data[i]%8, data[i+1]
		switch op {
		case 0:
			m.after(Time(b % 16)) // small delays: many same-cycle ties
		case 1:
			m.after(Time(b))
		case 2:
			m.every(Time(b%64) + 1)
		case 3:
			m.cancel(int(b))
		case 4:
			m.end = 0
			if pending := len(m.ref) > 0; s.Step() != pending {
				m.t.Fatalf("Step reported %v with pending=%v", !pending, pending)
			}
		case 5:
			limit := s.Now() + Time(b)
			if b%2 == 0 {
				m.end = limit
				s.RunBefore(limit)
				if len(m.ref) > 0 && m.ref[0].when < limit {
					m.t.Fatalf("RunBefore(%d) left an event at %d", limit, m.ref[0].when)
				}
			} else {
				m.end = limit + 1
				s.RunUntil(limit)
				if len(m.ref) > 0 && m.ref[0].when <= limit {
					m.t.Fatalf("RunUntil(%d) left an event at %d", limit, m.ref[0].when)
				}
				if s.Now() != limit {
					m.t.Fatalf("RunUntil(%d) left the clock at %d", limit, s.Now())
				}
			}
			m.end = 0
		case 6: // burst: deepen the queue by b events at scattered delays
			for j := 0; j < int(b); j++ {
				m.after(Time((j*37 + int(b)) % 251))
			}
		case 7: // churn: b rounds of schedule+step at constant depth
			for j := 0; j < int(b); j++ {
				m.after(Time((j*13+int(b))%61) + 1)
				m.end = 0
				s.Step()
			}
		}
		m.check()
		if got := s.Horizon(); got != s.Now() {
			m.t.Fatalf("Horizon outside a run = %d, want Now %d", got, s.Now())
		}
	}
}

// FuzzEventQueue checks the sorted-window queue against a naive stable-
// sorted reference over arbitrary schedule/cancel/dispatch sequences.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 9, 4, 0, 4, 0, 5, 200})
	f.Add([]byte{2, 5, 2, 7, 1, 40, 5, 101, 3, 1, 5, 255, 3, 0, 5, 254})
	f.Add(deepChurnOps())
	f.Fuzz(func(t *testing.T, data []byte) {
		newQueueModel(t).run(data)
	})
}

// deepChurnOps is an operation sequence that churns a shallow queue so the
// window slides past the buffer's end many times, deepens it into the
// hundreds (growing the buffer), churns and cancels at that depth, then
// dispatches through every entry point.
func deepChurnOps() []byte {
	ops := []byte{2, 10, 2, 33, 0, 1, 1, 7}
	for i := 0; i < 60; i++ {
		ops = append(ops, 7, 250)
	}
	for i := 0; i < 3; i++ {
		ops = append(ops, 6, 200, 7, 250, 3, byte(i*40), 0, 0)
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, 4, 0, 7, 60, 3, byte(i))
	}
	return append(ops, 5, 100, 5, 255, 4, 0, 5, 2)
}

// TestEventQueueDeepChurn pins that deepChurnOps reaches the depths and
// the window wrap the fuzz target is meant to cover.
func TestEventQueueDeepChurn(t *testing.T) {
	m := newQueueModel(t)
	m.run(deepChurnOps())
	if m.maxDepth < 300 || m.slides < 50 {
		t.Fatalf("max depth %d, %d window slides: want ≥ 300 and ≥ 50", m.maxDepth, m.slides)
	}
}

// TestSlidingWindowAllocFree runs schedule/step rounds at a constant depth
// of 8, so the window slides to the buffer's end and back many times, and
// checks that the buffer never grows and nothing allocates.
func TestSlidingWindowAllocFree(t *testing.T) {
	s := New(1)
	var fn Handler = func(Time) {}
	for i := 0; i < 8; i++ {
		s.After(Time(i+1), fn)
	}
	size := cap(s.queue)
	slides := 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100_000; i++ {
			head := s.head
			s.After(Time(i%13+1), fn)
			if s.head < head {
				slides++
			}
			s.Step()
			if cap(s.queue) != size {
				t.Fatalf("round %d: queue buffer grew from %d to %d slots at depth %d", i, size, cap(s.queue), s.Pending())
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state rounds allocate %.0f objects, want 0", allocs)
	}
	if s.Pending() != 8 || slides < 1000 {
		t.Fatalf("depth %d after the rounds, %d window slides: want 8 and ≥ 1000", s.Pending(), slides)
	}
}
