package runcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetMemoizes(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-memo")
	calls := 0
	f := func() int { calls++; return 42 }
	if got := c.Get("k", f); got != 42 {
		t.Fatalf("first Get = %d, want 42", got)
	}
	if got := c.Get("k", f); got != 42 {
		t.Fatalf("second Get = %d, want 42", got)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 entry", s)
	}
}

// TestSingleFlight checks concurrent Gets for one key run the compute
// exactly once, with every caller seeing the same value.
func TestSingleFlight(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-singleflight")
	var calls atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get("k", func() int {
				calls.Add(1)
				<-release // hold the computation open so others must wait
				return 7
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times under contention, want 1", calls.Load())
	}
	for i, r := range results {
		if r != 7 {
			t.Errorf("worker %d got %d, want 7", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	// Every non-owner is a hit; those that arrived while the computation
	// was in flight also count a dedup wait.
	if s.Hits != workers-1 || s.DedupWaits > s.Hits {
		t.Errorf("hits = %d, dedupWaits = %d; want %d hits, at most that many waits", s.Hits, s.DedupWaits, workers-1)
	}
}

// TestPanicPoisonsEntry checks a panicking computation poisons its key:
// both the owner and later callers panic rather than observe a zero
// value.
func TestPanicPoisonsEntry(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-panic")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("owner", func() { c.Get("k", func() int { panic("boom") }) })
	mustPanic("later caller", func() { c.Get("k", func() int { return 1 }) })
}

// TestPoisonedReadsAreNotHits pins the stats fix: reads of a poisoned
// entry land in Poisoned, never Hits (the daemon's cache/…/hits metric
// must not overcount panicked keys).
func TestPoisonedReadsAreNotHits(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-poison-stats")
	for i := 0; i < 3; i++ {
		func() {
			defer func() { recover() }()
			c.Get("k", func() int { panic("boom") })
		}()
	}
	s := c.Stats()
	if s.Hits != 0 {
		t.Errorf("hits = %d after poisoned reads, want 0", s.Hits)
	}
	if s.Poisoned != 2 {
		t.Errorf("poisoned = %d, want 2 (owner's panic is the miss)", s.Poisoned)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
}

// TestResetDuringGets hammers one cache with concurrent Gets and resets; under -race this is the proof that eviction no longer
// requires "no computations in flight". Values are keyed so a recompute
// after eviction still returns the right answer.
func TestResetDuringGets(t *testing.T) {
	defer ResetAll()
	c := New[int]("test-reset-race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := string(rune('a' + i%7))
				want := i % 7
				if got := c.Get(key, func() int { return want }); got != want {
					t.Errorf("worker %d: Get(%q) = %d, want %d", w, key, got, want)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		c.reset()
		ResetAll()
		c.Stats()
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotSorted(t *testing.T) {
	defer ResetAll()
	New[int]("zz-test-b")
	New[int]("aa-test-a")
	snap := Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}
