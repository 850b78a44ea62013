package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []Time
	for _, when := range []Time{30, 10, 20, 10, 5} {
		w := when
		s.Schedule(w, func(now Time) { got = append(got, now) })
	}
	s.Run()
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(100, func(Time) { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-cycle events fired out of FIFO order: %v", order)
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New(1)
	var at Time
	s.After(42, func(now Time) {
		at = now
		s.After(8, func(now Time) { at = now })
	})
	s.Run()
	if at != 50 {
		t.Errorf("chained After ended at %d, want 50", at)
	}
	if s.Now() != 50 {
		t.Errorf("clock at %d, want 50", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.Schedule(100, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling in the past did not panic")
		}
	}()
	s.Schedule(50, func(Time) {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(10, func(Time) { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.Run()
	if fired {
		t.Errorf("cancelled event fired")
	}
	if e.Pending() {
		t.Errorf("cancelled event still pending")
	}
}

func TestPeriodic(t *testing.T) {
	s := New(1)
	var times []Time
	var ev *Event
	ev = s.Every(10, func(now Time) {
		times = append(times, now)
		if len(times) == 5 {
			s.Cancel(ev)
		}
	})
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(times) != len(want) {
		t.Fatalf("periodic fired %d times, want %d: %v", len(times), len(want), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %d, want %d", i, times[i], want[i])
		}
	}
}

func TestPeriodicCancelFromOtherEvent(t *testing.T) {
	s := New(1)
	count := 0
	ev := s.Every(10, func(Time) { count++ })
	s.Schedule(35, func(Time) { s.Cancel(ev) })
	s.RunUntil(200)
	if count != 3 {
		t.Errorf("periodic fired %d times, want 3 (at 10, 20, 30)", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	s.Every(10, func(Time) { count++ })
	s.RunUntil(100)
	if count != 10 {
		t.Errorf("fired %d, want 10 (deadline-inclusive)", count)
	}
	if s.Now() != 100 {
		t.Errorf("clock %d, want 100", s.Now())
	}
	// Events beyond the deadline remain queued.
	if s.Pending() == 0 {
		t.Errorf("periodic event dropped by RunUntil")
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func(Time)
	recurse = func(Time) {
		depth++
		if depth < 100 {
			s.After(1, recurse)
		}
	}
	s.After(1, recurse)
	s.Run()
	if depth != 100 {
		t.Errorf("recursion depth %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Errorf("clock %d, want 100", s.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	if Microsecond != 2000 {
		t.Fatalf("Microsecond = %d cycles, want 2000 at 2 GHz", Microsecond)
	}
	if got := FromMicros(5); got != 10000 {
		t.Errorf("FromMicros(5) = %d, want 10000", got)
	}
	if got := Time(2_000_000_000).Seconds(); got != 1.0 {
		t.Errorf("Seconds = %g, want 1", got)
	}
	if got := Time(2000).Micros(); got != 1.0 {
		t.Errorf("Micros = %g, want 1", got)
	}
}

// Property: events fire in non-decreasing time order for arbitrary schedules.
func TestEventOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		for _, d := range delays {
			s.Schedule(Time(d), func(now Time) { fired = append(fired, now) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-seed streams collide too often: %d/1000", same)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Errorf("Exp mean = %g, want ≈100", mean)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGUniformTime(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.UniformTime(100, 200)
		if v < 100 || v > 200 {
			t.Fatalf("UniformTime out of range: %d", v)
		}
	}
	if got := r.UniformTime(50, 50); got != 50 {
		t.Errorf("degenerate UniformTime = %d, want 50", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Split()
	// Drawing from the child must not change the parent's future draws
	// relative to a parent that split but never used the child.
	parent2 := NewRNG(1)
	_ = parent2.Split()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != parent2.Uint64() {
			t.Fatalf("child draws perturbed parent stream at %d", i)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("degenerate draw did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Errorf("zero-period Every did not panic")
		}
	}()
	s.Every(0, func(Time) {})
}

func TestEventAccessors(t *testing.T) {
	s := New(1)
	e := s.Schedule(50, func(Time) {})
	if !e.Pending() || e.When() != 50 {
		t.Errorf("event accessors: pending=%v when=%d", e.Pending(), e.When())
	}
	s.Run()
	if e.Pending() {
		t.Errorf("fired event still pending")
	}
	var nilEv *Event
	if nilEv.Pending() {
		t.Errorf("nil event pending")
	}
	s.Cancel(nil) // must not panic
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	s := New(1)
	s.RunUntil(12345)
	if s.Now() != 12345 {
		t.Errorf("clock %d", s.Now())
	}
	if s.Fired() != 0 || s.Pending() != 0 {
		t.Errorf("phantom events")
	}
}

func TestStepEmpty(t *testing.T) {
	if New(1).Step() {
		t.Errorf("Step on empty queue returned true")
	}
}
