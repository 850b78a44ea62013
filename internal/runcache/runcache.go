// Package runcache memoizes deterministic Tier-1 simulation runs.
//
// The experiment grids repeat byte-identical work: every cell of the
// Fig. 4 differencing methodology re-runs the same interrupt-free
// baseline, fig5 re-derives the same normalization bases, and the
// density ablations recompute the very matmul baseline fig5 already
// has. Because every Tier-1 run is a pure function of its inputs
// (workload name + seed, uop budget, core configuration), such runs can
// be computed once and shared.
//
// A Cache is single-flight: when several sweep workers request the same
// key concurrently, exactly one computes while the rest block on the
// in-flight computation and then share its result. Values must be
// immutable once returned — cpu.Result qualifies as long as nobody
// mutates the records slice it carries, which the pool-aware
// cpu.Core.Reset guarantees by dropping (never truncating) the core's
// record slice.
//
// Keys are canonical fingerprints built by the caller; the contract is
// that the key covers *everything* the computation depends on and
// *nothing* it does not (a baseline key must exclude the delivery
// strategy, for example — see experiments.baselineKey). Invalidation is
// by fingerprint: change an input, and the key changes with it, so
// stale entries are never read. A Cache never evicts; its owner bounds
// it by dropping it (each experiments.Env owns its caches). A caller
// that wants the uncached reference path (experiments.Env.NoCache)
// calls its computation directly instead of Get.
//
// Hits, misses, dedup-waits and poisoned reads add into the Counters a
// Cache is built on, which outlive the Cache: experiments keeps one
// process-wide set per memo table and exports them under the cache/
// namespace, in `xuibench -report` and in xuiserve's /api/v1/stats.
//
// Caches live in memory only. The disk tier (Disk) is a separate store:
// xuiserve's Server owns one and keeps its job results there; no Cache
// reads or writes it.
package runcache

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one set of cache counters.
type Stats struct {
	Name       string `json:"name"`
	Hits       uint64 `json:"hits"`       // key present and computed successfully
	Misses     uint64 `json:"misses"`     // this caller ran the computation
	DedupWaits uint64 `json:"dedupWaits"` // blocked on another caller's in-flight computation
	Poisoned   uint64 `json:"poisoned"`   // reads of entries whose computation panicked (not hits)
	// The disk counters are filled by xuiserve's job store (the
	// /api/v1/stats jobsCache row); a Cache leaves them zero.
	DiskHits   uint64 `json:"diskHits"`   // lookups answered by the disk tier
	DiskStores uint64 `json:"diskStores"` // entries written behind to the disk tier
	DiskErrors uint64 `json:"diskErrors"` // failed disk writes (the tier is best-effort)
	Entries    int    `json:"entries"`    // the most entries any one Cache on these counters has held
}

// Counters is a named set of cumulative cache counters. Every Cache
// built on it adds into it, so its totals cover all of them, those
// already dropped included.
type Counters struct {
	name string

	hits     atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	poisoned atomic.Uint64
	entries  atomic.Int64 // peak entries of one Cache
}

// NewCounters builds an empty named counter set.
func NewCounters(name string) *Counters { return &Counters{name: name} }

// Stats snapshots the counters.
func (t *Counters) Stats() Stats {
	return Stats{
		Name:       t.name,
		Hits:       t.hits.Load(),
		Misses:     t.misses.Load(),
		DedupWaits: t.waits.Load(),
		Poisoned:   t.poisoned.Load(),
		Entries:    int(t.entries.Load()),
	}
}

// notePeak raises the peak entry count to n.
func (t *Counters) notePeak(n int64) {
	for p := t.entries.Load(); n > p; p = t.entries.Load() {
		if t.entries.CompareAndSwap(p, n) {
			return
		}
	}
}

// entry is one single-flight slot. done is closed when val is ready;
// panicked marks a computation that unwound, so waiters fail too
// instead of reading a zero value.
type entry[V any] struct {
	done     chan struct{}
	val      V
	panicked bool
}

// Cache memoizes values of type V under string fingerprints. The zero
// Cache is not usable; build with New.
type Cache[V any] struct {
	ctr *Counters

	mu      sync.Mutex
	entries map[string]*entry[V] //xui:guardedby mu
}

// New builds an empty cache that counts into ctr.
func New[V any](ctr *Counters) *Cache[V] {
	return &Cache[V]{ctr: ctr, entries: make(map[string]*entry[V])}
}

// Get returns the value for key, computing it with compute on first
// use. Concurrent Gets for the same key run compute once; the others
// block until it finishes. If compute panics, the waiters panic too
// and the poisoned entry stays poisoned (deterministic computations
// fail deterministically; retrying would just re-raise). Poisoned
// reads are counted separately from hits.
func (c *Cache[V]) Get(key string, compute func() V) V {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
		default:
			c.ctr.waits.Add(1)
			<-e.done
		}
		if e.panicked {
			c.ctr.poisoned.Add(1)
			panic("runcache: " + c.ctr.name + ": shared computation for key " + key + " panicked")
		}
		c.ctr.hits.Add(1)
		return e.val
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	n := int64(len(c.entries))
	c.mu.Unlock()
	c.ctr.misses.Add(1)
	c.ctr.notePeak(n)

	completed := false
	defer func() {
		e.panicked = !completed
		close(e.done)
	}()
	e.val = compute()
	completed = true
	return e.val
}
