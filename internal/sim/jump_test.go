package sim

import (
	"reflect"
	"testing"
)

// TestJump checks that a jump from inside a handler moves the clock and
// every pending event by the same amount and nothing else: the handler
// goes on at the new Now, same-cycle events keep their FIFO order, a
// periodic event keeps its period, Horizon follows the shifted head, and
// the jump allocates nothing.
func TestJump(t *testing.T) {
	s := New(1)
	type fire struct {
		id int
		at Time
	}
	var got []fire
	rec := func(id int) Handler { return func(now Time) { got = append(got, fire{id, now}) } }
	s.Schedule(100, rec(1))
	s.Schedule(100, rec(2)) // same cycle as 1, queued after it
	s.Schedule(50, rec(3))
	s.Schedule(100, rec(4))
	tick := s.Every(40, rec(5)) // 40, 80, 120, ...

	const d = 1000
	var now, horizon Time
	s.Schedule(45, func(Time) {
		s.Jump(d)
		now, horizon = s.Now(), s.Horizon()
		s.After(0, rec(6)) // due at the new now, before every shifted event
	})
	s.RunUntil(125 + d)
	if now != 45+d {
		t.Errorf("Now after the jump = %d, want %d", now, 45+d)
	}
	if horizon != 50+d {
		t.Errorf("Horizon after the jump = %d, want %d", horizon, 50+d)
	}
	want := []fire{
		{5, 40},
		{6, 45 + d},
		{3, 50 + d},
		{5, 80 + d},
		{1, 100 + d}, {2, 100 + d}, {4, 100 + d},
		{5, 120 + d}, // the period is unchanged
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
	if w := tick.When(); w != 160+d {
		t.Errorf("periodic event due at %d, want %d", w, 160+d)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Jump(d) }); allocs != 0 {
		t.Errorf("Jump allocates %.1f objects, want 0", allocs)
	}
}
