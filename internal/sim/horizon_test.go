package sim

import "testing"

// horizonAt schedules a probe event at when that records Horizon as it
// fires, and returns where the reading lands.
func horizonAt(s *Simulator, when Time) *Time {
	got := new(Time)
	s.Schedule(when, func(Time) { *got = s.Horizon() })
	return got
}

func TestHorizonSameCycleEvent(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Schedule(100, func(Time) {}) // due in the same cycle as the probe
	s.Schedule(500, func(Time) {})
	s.Run()
	if *got != 100 {
		t.Errorf("Horizon with a same-cycle event pending = %d, want now (100)", *got)
	}
}

func TestHorizonNextEvent(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Schedule(250, func(Time) {})
	s.RunUntil(1000)
	if *got != 250 {
		t.Errorf("Horizon = %d, want the next event (250)", *got)
	}
}

func TestHorizonEmptyQueueUnderRun(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Run()
	if *got != Never {
		t.Errorf("Horizon with an empty queue under Run = %d, want Never", *got)
	}
}

func TestHorizonRunUntilIncludesDeadline(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Schedule(5000, func(Time) {})
	s.RunUntil(300)
	// Instants up to and including 300 belong to this call.
	if *got != 301 {
		t.Errorf("Horizon under RunUntil(300) = %d, want 301", *got)
	}
	s = New(1)
	got = horizonAt(s, 100)
	s.RunUntil(Never)
	if *got != Never {
		t.Errorf("Horizon under RunUntil(Never) = %d, want Never", *got)
	}
}

func TestHorizonRunBeforeExcludesLimit(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Schedule(5000, func(Time) {})
	s.RunBefore(300)
	if *got != 300 {
		t.Errorf("Horizon under RunBefore(300) = %d, want 300", *got)
	}
}

func TestHorizonOutsideRun(t *testing.T) {
	s := New(1)
	got := horizonAt(s, 100)
	s.Schedule(5000, func(Time) {})
	if !s.Step() {
		t.Fatal("Step fired nothing")
	}
	if *got != 100 {
		t.Errorf("Horizon under a bare Step = %d, want now (100)", *got)
	}
	// Between runs the window is closed again.
	s.RunUntil(200)
	if h := s.Horizon(); h != s.Now() {
		t.Errorf("Horizon after RunUntil returned = %d, want now (%d)", h, s.Now())
	}
}
