package sim

import "testing"

// TestEventStorageReuseAfterFire checks a fired one-shot event's storage is
// recycled into the next Schedule (LIFO free list).
func TestEventStorageReuseAfterFire(t *testing.T) {
	s := New(1)
	e1 := s.After(10, func(Time) {})
	s.Run()
	e2 := s.After(10, func(Time) {})
	if e1 != e2 {
		t.Fatal("fired event storage was not reused by the next Schedule")
	}
	if !e2.Pending() {
		t.Fatal("recycled event not pending after Schedule")
	}
	s.Run()
}

// TestEventStorageReuseAfterCancel checks cancellation recycles storage too.
func TestEventStorageReuseAfterCancel(t *testing.T) {
	s := New(1)
	e1 := s.After(10, func(Time) {})
	s.Cancel(e1)
	e2 := s.After(5, func(Time) {})
	if e1 != e2 {
		t.Fatal("cancelled event storage was not reused by the next Schedule")
	}
	fired := 0
	s.Schedule(e2.When(), func(Time) { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestSelfCancelInHandler checks a one-shot handler cancelling its own
// (already-fired) event does not double-release the storage.
func TestSelfCancelInHandler(t *testing.T) {
	s := New(1)
	var ev *Event
	ev = s.After(1, func(Time) { s.Cancel(ev) })
	s.Run()
	// A double release would put the same *Event on the free list twice and
	// two subsequent Schedules would alias; verify they do not.
	a := s.After(1, func(Time) {})
	b := s.After(2, func(Time) {})
	if a == b {
		t.Fatal("free list handed out the same event twice")
	}
	s.Run()
}

// TestPeriodicCancelInHandlerThenReuse checks a periodic event cancelled
// from its own handler is recycled exactly once and the series stops.
func TestPeriodicCancelInHandlerThenReuse(t *testing.T) {
	s := New(1)
	fires := 0
	var ev *Event
	ev = s.Every(10, func(Time) {
		fires++
		if fires == 3 {
			s.Cancel(ev)
		}
	})
	s.RunUntil(1000)
	if fires != 3 {
		t.Fatalf("fires = %d, want 3", fires)
	}
	a := s.After(1000+1, func(Time) {})
	b := s.After(1000+2, func(Time) {})
	if a == b {
		t.Fatal("free list handed out the same event twice")
	}
	s.Run()
}

// TestScheduleSteadyStateAllocFree checks the schedule→fire hot path stops
// allocating once the pool and queue are warm — the property the overhaul is
// for.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	var fn Handler = func(Time) {}
	for i := 0; i < 256; i++ {
		s.After(Time(i+1), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		s.After(1, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// TestAfterArgPayloadAndAllocFree checks a payload event hands its word to
// the handler, orders FIFO with closure events at the same cycle, and
// that the payload path is allocation-free once warm.
func TestAfterArgPayloadAndAllocFree(t *testing.T) {
	s := New(1)
	var got []uint64
	afn := ArgHandler(func(_ Time, arg uint64) { got = append(got, arg) })
	s.AfterArg(5, afn, 7)
	s.After(5, func(Time) { got = append(got, 100) })
	s.ScheduleArg(5, afn, 9)
	s.Run()
	if len(got) != 3 || got[0] != 7 || got[1] != 100 || got[2] != 9 {
		t.Fatalf("fired payloads = %v, want [7 100 9]", got)
	}

	var sum uint64
	sink := ArgHandler(func(_ Time, arg uint64) { sum += arg })
	for i := 0; i < 256; i++ {
		s.AfterArg(Time(i+1), sink, 1)
	}
	s.Run()
	allocs := testing.AllocsPerRun(200, func() {
		s.AfterArg(1, sink, 2)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state AfterArg/fire allocates %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkSimEventScheduleArg measures the payload-event round trip.
func BenchmarkSimEventScheduleArg(b *testing.B) {
	s := New(1)
	var sum uint64
	afn := ArgHandler(func(_ Time, arg uint64) { sum += arg })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AfterArg(1, afn, uint64(i))
		s.Step()
	}
}

// BenchmarkSimEventSchedule measures the one-shot schedule→fire round trip
// with an otherwise empty queue.
func BenchmarkSimEventSchedule(b *testing.B) {
	s := New(1)
	var fn Handler = func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// benchScheduleAtDepth measures the schedule→fire round trip with depth
// far-future events resident, so each push scans past all of them.
func benchScheduleAtDepth(b *testing.B, depth int) {
	s := New(1)
	var fn Handler = func(Time) {}
	for i := 0; i < depth; i++ {
		s.Schedule(Never-Time(i)-1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// BenchmarkSimEventScheduleDepth{8,16,32,64} locate the depth at which a
// scan-inserted queue falls behind a binary heap; DESIGN.md §7 records it.
func BenchmarkSimEventScheduleDepth8(b *testing.B)  { benchScheduleAtDepth(b, 8) }
func BenchmarkSimEventScheduleDepth16(b *testing.B) { benchScheduleAtDepth(b, 16) }
func BenchmarkSimEventScheduleDepth32(b *testing.B) { benchScheduleAtDepth(b, 32) }
func BenchmarkSimEventScheduleDepth64(b *testing.B) { benchScheduleAtDepth(b, 64) }

// BenchmarkSimEventPeriodic measures the periodic re-arm path.
func BenchmarkSimEventPeriodic(b *testing.B) {
	s := New(1)
	ev := s.Every(10, func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	s.Cancel(ev)
}

// BenchmarkSimEventCancel measures schedule+cancel (the timer-heavy
// kernels' common case: most timers never fire).
func BenchmarkSimEventCancel(b *testing.B) {
	s := New(1)
	var fn Handler = func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.After(10, fn))
	}
}
