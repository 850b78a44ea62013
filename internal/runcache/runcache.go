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
// # Persistence
//
// A cache is in-memory by default; results die with the process. A
// cache that opts in with Persist (providing an encode/decode codec for
// its value type) gains a second, persistent tier behind the
// single-flight layer once a Backend is installed with SetBackend: a
// memory miss probes the backend before computing, and a completed
// computation is written behind (asynchronously, off the Get path) so
// the next process finds it. Entries are content-addressed — the
// backend stores under a hash of (code version, cache name, key), so a
// disk hit is only ever returned to the exact computation that produced
// it; see Disk. Poisoned (panicked) entries are never persisted, and a
// torn write is never visible: Disk commits by atomic rename.
//
// Hits, misses, dedup-waits and the disk tier's hit/store/error
// counters are exported through internal/obs under the cache/
// namespace (PublishTo), and surfaced by `xuibench -report` and
// xuiserve's /api/v1/stats.
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
	DiskHits   uint64 `json:"diskHits"`   // memory misses answered by the persistent tier
	DiskStores uint64 `json:"diskStores"` // entries written behind to the persistent tier
	DiskErrors uint64 `json:"diskErrors"` // encode/decode/IO failures (the tier is best-effort)
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

	// codec, when non-nil, lets the cache participate in the persistent
	// tier (see Persist / SetBackend).
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)

	hits     atomic.Uint64
	misses   atomic.Uint64
	waits    atomic.Uint64
	poisoned atomic.Uint64
	dhits    atomic.Uint64
	dstores  atomic.Uint64
	derrs    atomic.Uint64
}

// New builds a named cache and registers it for Snapshot/PublishTo.
func New[V any](name string) *Cache[V] {
	c := &Cache[V]{name: name, entries: make(map[string]*entry[V])}
	registry.mu.Lock()
	registry.caches = append(registry.caches, c)
	registry.mu.Unlock()
	return c
}

// Persist equips the cache with a value codec, opting it into the
// persistent tier: once a Backend is installed (SetBackend), memory
// misses probe it and completed computations are written behind.
// Returns the cache for call chaining. Call before first use.
func (c *Cache[V]) Persist(encode func(V) ([]byte, error), decode func([]byte) (V, error)) *Cache[V] {
	c.encode = encode
	c.decode = decode
	return c
}

// loadPersisted probes the persistent tier for key. Decode failures are
// treated as misses (and counted), never as errors: the tier is
// best-effort by contract.
func (c *Cache[V]) loadPersisted(key string) (V, bool) {
	var zero V
	b := currentBackend()
	if b == nil || c.decode == nil {
		return zero, false
	}
	data, ok := b.Load(c.name, key)
	if !ok {
		return zero, false
	}
	v, err := c.decode(data)
	if err != nil {
		c.derrs.Add(1)
		return zero, false
	}
	c.dhits.Add(1)
	return v, true
}

// storePersisted writes key's value behind: encoding happens on the
// caller, the backend write on a bounded worker so Get never blocks on
// disk. Poisoned entries never reach here — callers only persist
// completed computations.
func (c *Cache[V]) storePersisted(key string, v V) {
	b := currentBackend()
	if b == nil || c.encode == nil {
		return
	}
	data, err := c.encode(v)
	if err != nil {
		c.derrs.Add(1)
		return
	}
	persistWG.Add(1)
	go func() {
		defer persistWG.Done()
		persistSem <- struct{}{}
		defer func() { <-persistSem }()
		if err := b.Store(c.name, key, data); err != nil {
			c.derrs.Add(1)
			return
		}
		c.dstores.Add(1)
	}()
}

// Get returns the value for key, computing it with compute on first
// use. Concurrent Gets for the same key run compute once; the others
// block until it finishes. If compute panics, the waiters panic too
// and the poisoned entry stays poisoned (deterministic computations
// fail deterministically; retrying would just re-raise). Poisoned
// reads are counted separately from hits.
//
// When the cache is persistent (Persist + SetBackend), a memory miss
// probes the backend before computing, and a completed computation is
// written behind for the next process.
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

	if v, ok := c.loadPersisted(key); ok {
		e.val = v
		close(e.done)
		return v
	}
	c.misses.Add(1)

	completed := false
	defer func() {
		e.panicked = !completed
		close(e.done)
		if completed {
			c.storePersisted(key, e.val)
		}
	}()
	e.val = compute()
	completed = true
	return e.val
}

// GetCached returns the value for key if it is already available in
// memory or in the persistent tier, without ever running a computation.
// A read of an in-flight entry blocks until the owner finishes; a
// poisoned entry reads as a miss (counted in Stats.Poisoned), so the
// caller may retry a transiently failed computation with Put.
func (c *Cache[V]) GetCached(key string) (V, bool) {
	var zero V
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		select {
		case <-e.done:
		default:
			c.waits.Add(1)
			<-e.done
		}
		if e.panicked {
			c.poisoned.Add(1)
			return zero, false
		}
		c.hits.Add(1)
		return e.val, true
	}
	v, ok := c.loadPersisted(key)
	if !ok {
		return zero, false
	}
	// Promote the disk hit into memory so later reads are cheap. Another
	// writer may have raced the slot in; keep whichever landed first.
	e = &entry[V]{val: v, done: make(chan struct{})}
	close(e.done)
	c.mu.Lock()
	if _, exists := c.entries[key]; !exists {
		c.entries[key] = e
	}
	c.mu.Unlock()
	return v, true
}

// Put installs v under key, replacing any existing entry (including a
// poisoned one — Put is how a caller that recovered from a transient
// failure repairs the slot), and writes it behind to the persistent
// tier. An in-flight computation for the same key completes against its
// orphaned entry exactly as under reset.
func (c *Cache[V]) Put(key string, v V) {
	e := &entry[V]{val: v, done: make(chan struct{})}
	close(e.done)
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
	c.storePersisted(key, v)
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
		DiskHits:   c.dhits.Load(),
		DiskStores: c.dstores.Load(),
		DiskErrors: c.derrs.Load(),
		Entries:    n,
	}
}

// reset drops all entries and zeroes the counters. Safe with Gets in
// flight: the map swap happens under the lock, waiters already holding
// an entry drain against it unchanged, and an in-flight computation
// completes against its orphaned entry (a concurrent Get for the same
// key may then recompute — duplicated work, never a wrong answer). A
// daemon evicting memory entries keeps its persistent tier: reset does
// not touch the backend.
func (c *Cache[V]) reset() {
	c.mu.Lock()
	c.entries = make(map[string]*entry[V])
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.waits.Store(0)
	c.poisoned.Store(0)
	c.dhits.Store(0)
	c.dstores.Store(0)
	c.derrs.Store(0)
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
// tests, A/B timing, and daemons evicting memory between jobs; safe
// with computations in flight (see Cache.reset), though concurrent Gets
// may then recompute. The persistent tier is untouched.
func ResetAll() {
	registry.mu.Lock()
	caches := append([]statser(nil), registry.caches...)
	registry.mu.Unlock()
	for _, c := range caches {
		c.reset()
	}
}

// ---- persistent tier ----------------------------------------------------

// Backend is a persistent second tier behind the in-memory single-flight
// layer. Implementations must be safe for concurrent use and must make
// committed entries atomically visible (a Load never observes a torn
// Store); Disk is the standard implementation. Load's ok result is
// false on miss; errors are reported by Store only (Load failures are
// indistinguishable from misses by design — the tier is best-effort).
type Backend interface {
	Load(cache, key string) (data []byte, ok bool)
	Store(cache, key string, data []byte) error
}

var backendMu sync.RWMutex
var backend Backend

// SetBackend installs the persistent tier used by every cache equipped
// with a codec (Persist); nil uninstalls it. Typically called once at
// daemon startup with a Disk backend.
func SetBackend(b Backend) {
	backendMu.Lock()
	backend = b
	backendMu.Unlock()
}

func currentBackend() Backend {
	backendMu.RLock()
	b := backend
	backendMu.RUnlock()
	return b
}

// Write-behind stores run on goroutines bounded by persistSem so a
// burst of completions cannot pile up unbounded disk writers; WaitPersist
// drains them (shutdown, tests).
var (
	persistWG  sync.WaitGroup
	persistSem = make(chan struct{}, 4)
)

// WaitPersist blocks until every write-behind store issued so far has
// committed or failed. Call at daemon shutdown (and in tests) so the
// disk tier is complete before the process exits.
func WaitPersist() { persistWG.Wait() }

// PublishTo writes current totals into reg under the cache/ namespace:
// cache/<name>/{hits,misses,dedup_waits,poisoned,entries} plus the
// disk_{hits,stores,errors} counters when a persistent tier is in play.
// Call once per run (counters add), typically when a cmd binary exports
// its registry.
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
		if s.DiskHits != 0 || s.DiskStores != 0 || s.DiskErrors != 0 {
			reg.Add("cache/"+s.Name+"/disk_hits", s.DiskHits)
			reg.Add("cache/"+s.Name+"/disk_stores", s.DiskStores)
			reg.Add("cache/"+s.Name+"/disk_errors", s.DiskErrors)
		}
	}
}
