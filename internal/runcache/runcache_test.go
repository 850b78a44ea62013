package runcache

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetMemoizes(t *testing.T) {
	ctr := NewCounters("test-memo")
	c := New[int](ctr)
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
	s := ctr.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit / 1 entry", s)
	}

	// A second cache on the same counters shares no entries but adds
	// into the totals; Entries is the larger cache's size.
	d := New[int](ctr)
	d.Get("k", f)
	d.Get("j", f)
	if calls != 3 {
		t.Errorf("compute ran %d times over two caches, want 3", calls)
	}
	if s := ctr.Stats(); s.Misses != 3 || s.Hits != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 3 misses / 1 hit / 2 entries", s)
	}
}

// TestSingleFlight checks concurrent Gets for one key run the compute
// exactly once, with every caller seeing the same value.
func TestSingleFlight(t *testing.T) {
	ctr := NewCounters("test-singleflight")
	c := New[int](ctr)
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
	s := ctr.Stats()
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
	c := New[int](NewCounters("test-panic"))
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
	ctr := NewCounters("test-poison-stats")
	c := New[int](ctr)
	for i := 0; i < 3; i++ {
		func() {
			defer func() { recover() }()
			c.Get("k", func() int { panic("boom") })
		}()
	}
	s := ctr.Stats()
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
