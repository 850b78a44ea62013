package sim

import (
	"reflect"
	"testing"
)

// TestShiftPending checks that shifting the pending events moves each
// of them by the same amount and nothing else: same-cycle events keep
// their FIFO order, a periodic event keeps its period, Horizon follows
// the shifted head, and the shift allocates nothing.
func TestShiftPending(t *testing.T) {
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
	s.RunUntil(45)              // fires the series' first tick, 5@40

	const d = 1000
	if allocs := testing.AllocsPerRun(1, func() { s.ShiftPending(d) }); allocs != 0 {
		t.Errorf("ShiftPending allocates %.1f objects, want 0", allocs)
	}
	const shift = 2 * d // AllocsPerRun shifts twice: a warm-up and the measured run
	if w := tick.When(); w != 80+shift {
		t.Errorf("periodic event due at %d after the shift, want %d", w, 80+shift)
	}
	h := horizonAt(s, 45) // reads Horizon with only the shifted events pending
	got = nil
	s.RunUntil(125 + shift)
	if *h != 50+shift {
		t.Errorf("Horizon after the shift = %d, want %d", *h, 50+shift)
	}
	want := []fire{
		{3, 50 + shift},
		{5, 80 + shift},
		{1, 100 + shift}, {2, 100 + shift}, {4, 100 + shift},
		{5, 120 + shift}, // the period is unchanged
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired %v, want %v", got, want)
	}
}
