// Package runcache memoizes deterministic Tier-1 simulation runs.
//
// The experiment grids repeat byte-identical work: every cell of the
// Fig. 4 differencing methodology re-runs the same interrupt-free
// baseline, fig5 re-derives the same normalization bases, and the
// density ablations recompute the very matmul baseline fig5 already
// has. Because every Tier-1 run is a pure function of its inputs
// (workload name + seed, uop budget, core configuration), such runs can
// be computed once per process and shared.
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
// stale entries are never read; they are only dropped wholesale by
// ResetAll or process exit. A caller that wants the uncached reference
// path (experiments.Env.NoCache) calls its computation directly instead
// of Get.
//
// Hits, misses, dedup-waits and poisoned reads are exported through
// internal/obs under the cache/ namespace (PublishTo), and surfaced by
// `xuibench -report` and xuiserve's /api/v1/stats.
//
// Caches live in memory only and die with the process. The disk tier
// (Disk) is a separate store: xuiserve's Server owns one and keeps its
// job results there; no Cache reads or writes it.
package runcache

import (
	"sort"
	"sync"
	"sync/atomic"

	"xui/internal/obs"
)

// Stats is a point-in-time snapshot of one cache's counters.
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
	Entries    int    `json:"entries"`
}

// registry tracks every cache built with New so stats can be snapshot
// and published without threading cache handles around.
var registry struct {
	mu     sync.Mutex
	caches []statser //xui:guardedby mu
}

type statser interface {
	Stats() Stats
	reset()
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
	name string

	mu      sync.Mutex
	entries map[string]*entry[V] //xui:guardedby mu

	hits     atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	poisoned atomic.Uint64
}

// New builds a named cache and registers it for Snapshot/PublishTo.
func New[V any](name string) *Cache[V] {
	c := &Cache[V]{name: name, entries: make(map[string]*entry[V])}
	registry.mu.Lock()
	registry.caches = append(registry.caches, c)
	registry.mu.Unlock()
	return c
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
			c.waits.Add(1)
			<-e.done
		}
		if e.panicked {
			c.poisoned.Add(1)
			panic("runcache: " + c.name + ": shared computation for key " + key + " panicked")
		}
		c.hits.Add(1)
		return e.val
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	completed := false
	defer func() {
		e.panicked = !completed
		close(e.done)
	}()
	e.val = compute()
	completed = true
	return e.val
}

// Stats snapshots the cache's counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{
		Name:       c.name,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		DedupWaits: c.waits.Load(),
		Poisoned:   c.poisoned.Load(),
		Entries:    n,
	}
}

// reset drops all entries and zeroes the counters. Safe with Gets in
// flight: the map swap happens under the lock, waiters already holding
// an entry drain against it unchanged, and an in-flight computation
// completes against its orphaned entry (a concurrent Get for the same
// key may then recompute — duplicated work, never a wrong answer).
func (c *Cache[V]) reset() {
	c.mu.Lock()
	c.entries = make(map[string]*entry[V])
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.waits.Store(0)
	c.poisoned.Store(0)
}

// Snapshot returns stats for every registered cache, sorted by name.
func Snapshot() []Stats {
	registry.mu.Lock()
	out := make([]Stats, 0, len(registry.caches))
	for _, c := range registry.caches {
		out = append(out, c.Stats())
	}
	registry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResetAll drops every registered cache's entries and counters. Used by
// tests and A/B timing; safe with computations in flight (see
// Cache.reset), though concurrent Gets may then recompute.
func ResetAll() {
	registry.mu.Lock()
	caches := append([]statser(nil), registry.caches...)
	registry.mu.Unlock()
	for _, c := range caches {
		c.reset()
	}
}

// PublishTo writes current totals into reg under the cache/ namespace:
// cache/<name>/{hits,misses,dedup_waits,poisoned,entries}. Call once
// per run (counters add), typically when a cmd binary exports its
// registry.
func PublishTo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, s := range Snapshot() {
		reg.Add("cache/"+s.Name+"/hits", s.Hits)
		reg.Add("cache/"+s.Name+"/misses", s.Misses)
		reg.Add("cache/"+s.Name+"/dedup_waits", s.DedupWaits)
		reg.Add("cache/"+s.Name+"/poisoned", s.Poisoned)
		reg.SetGauge("cache/"+s.Name+"/entries", float64(s.Entries))
	}
}
