package urt

import (
	"testing"

	"xui/internal/core"
	"xui/internal/sim"
)

// spawnAllocs returns the heap allocations per Spawn of a warm runtime
// that runs batches of threads, each queued behind the others, to
// completion within one simulated millisecond.
func spawnAllocs(t *testing.T, mode PreemptMode, service sim.Time) float64 {
	t.Helper()
	s, rt := newRT(t, 1, mode, 10000, core.TrackedIPI, false)
	done := 0
	onDone := func(sim.Time, *UThread) { done++ }
	const batch = 4
	round := func() {
		for i := 0; i < batch; i++ {
			rt.Spawn(0, "GET", service, onDone)
		}
		s.RunUntil(s.Now() + sim.Millisecond)
	}
	for i := 0; i < 8; i++ {
		round() // warm-up: event slabs and the run queue reach full size
	}
	allocs := testing.AllocsPerRun(50, round)
	if want := (8 + 51) * batch; done != want {
		t.Fatalf("completed %d threads, want %d", done, want)
	}
	return allocs / batch
}

// TestSpawnFinishOneAlloc pins a Spawn→finish round trip at exactly one
// allocation: the UThread, which stays its own object because callers
// may keep it past its OnDone. The completion handler is bound once per
// worker and the run queue reuses its array.
func TestSpawnFinishOneAlloc(t *testing.T) {
	if got := spawnAllocs(t, NoPreempt, 2000); got != 1 {
		t.Errorf("Spawn→finish allocates %.2f objects per thread, want 1", got)
	}
}

// TestPreemptedSpawnOneAlloc is the same guard with KB_Timer preemption
// slicing every thread: preempting, requeueing and resuming allocate
// nothing more.
func TestPreemptedSpawnOneAlloc(t *testing.T) {
	if got := spawnAllocs(t, KBTimer, 45000); got != 1 {
		t.Errorf("preempted Spawn→finish allocates %.2f objects per thread, want 1", got)
	}
}

// TestRunQueueFIFOAcrossCompaction interleaves spawns with partial runs,
// so the head-indexed run queue compacts in place many times; threads
// must still complete in spawn order.
func TestRunQueueFIFOAcrossCompaction(t *testing.T) {
	s, rt := newRT(t, 1, NoPreempt, 0, core.TrackedIPI, false)
	var order []uint64
	onDone := func(_ sim.Time, th *UThread) { order = append(order, th.ID) }
	slot := sim.Time(1000 + core.UserContextSwitch)
	for round := 0; round < 40; round++ {
		for i := 0; i < 7; i++ {
			rt.Spawn(0, "GET", 1000, onDone)
		}
		s.RunUntil(s.Now() + 5*slot) // five of the seven complete
	}
	s.Run()
	if len(order) != 280 {
		t.Fatalf("completed %d threads, want 280", len(order))
	}
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("completion %d was thread %d, want %d", i, id, i+1)
		}
	}
}
