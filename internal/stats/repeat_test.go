package stats

import (
	"reflect"
	"testing"
)

// histStep records one step's observations: a few values whose top one
// grows the bucket array on the first step.
func histStep(h *Histogram) {
	for _, v := range []uint64{3, 700, 700, 12345} {
		h.Record(v)
	}
}

// TestHistogramRepeat checks the snapshot helpers against recording:
// after two equal steps SameStep holds, and Repeat(k) leaves the state
// recording k more steps would, min and max included.
func TestHistogramRepeat(t *testing.T) {
	h := NewHistogram()
	h.Record(5) // history before the steps
	var old, mid Histogram
	old.CopyFrom(h)
	histStep(h)
	mid.CopyFrom(h)
	histStep(h)
	if !h.SameStep(&old, &mid) {
		t.Fatal("SameStep is false after two equal steps")
	}
	want := NewHistogram()
	want.CopyFrom(h)
	for i := 0; i < 7; i++ {
		histStep(want)
	}
	h.Repeat(&mid, 7)
	if !reflect.DeepEqual(h, want) {
		t.Errorf("Repeat(7) = %+v, want %+v", h, want)
	}

	mid.CopyFrom(h)
	h.Record(700) // a step one observation short
	if h.SameStep(&old, &mid) {
		t.Error("SameStep is true after a different step")
	}
}

// TestCycleAccountRepeat checks the account's snapshot helpers the same
// way, and that a step which creates a category is never the same step.
func TestCycleAccountRepeat(t *testing.T) {
	step := func(a *CycleAccount) {
		a.Charge("send", 383)
		a.Charge("os-timer", 4800)
	}
	a := NewCycleAccount()
	a.Charge("send", 1)
	var old, mid CycleAccount
	old.CopyFrom(a)
	step(a) // creates os-timer
	mid.CopyFrom(a)
	step(a)
	if a.SameStep(&old, &mid) {
		t.Error("SameStep is true across a step that created a category")
	}
	old.CopyFrom(&mid)
	mid.CopyFrom(a)
	step(a)
	if !a.SameStep(&old, &mid) {
		t.Fatal("SameStep is false after two equal steps")
	}
	want := NewCycleAccount()
	want.CopyFrom(a)
	for i := 0; i < 5; i++ {
		step(want)
	}
	a.Repeat(&mid, 5)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("Repeat(5) = %+v, want %+v", a, want)
	}
}
