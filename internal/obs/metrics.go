package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"xui/internal/stats"
)

// Registry is a namespace-keyed collection of counters, gauges and
// log-bucketed histograms (reusing the HdrHistogram-style buckets from
// internal/stats). Metric names are slash-separated component paths, e.g.
// "cpu0/delivered" or "vcore1/cycles/notify"; instruments are created on
// first use. A nil Registry discards everything. Registry is safe for
// concurrent use: each Simulator is single-threaded, but parallel sweep
// workers (internal/sweep) record into one shared registry.
//
// Hot paths do not look names up per event: they resolve a *Counter or
// *Histogram handle once, when observability is attached (CounterHandle,
// HistogramHandle), and then record through it with one atomic add or one
// per-histogram lock, building no strings. The name-keyed methods (Add,
// Inc, Observe, Counter) are thin wrappers over the same handles for cold
// callers, so a handle write and a name-keyed write to one name sum into
// one value. A handle that was resolved but never written stays out of
// Snapshot and Names.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   //xui:guardedby mu
	gauges   map[string]float64    //xui:guardedby mu
	hists    map[string]*Histogram //xui:guardedby mu
}

// Counter is a pre-resolved counter handle. A nil *Counter (what a nil
// Registry hands out) discards everything.
type Counter struct {
	v       atomic.Uint64
	written atomic.Bool // set by the first Add, even of zero
}

// Add increments the counter by n.
//
//xui:noalloc
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	if !c.written.Load() {
		c.written.Store(true)
	}
	c.v.Add(n)
}

// Value returns the counter's current value (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a pre-resolved histogram handle: recording takes only this
// histogram's own lock, which is uncontended unless parallel sweep
// workers share the name. A nil *Histogram discards everything.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram //xui:guardedby mu
}

// Record adds one observation.
//
//xui:noalloc
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.h == nil {
		h.h = stats.NewHistogram() //xui:alloc first observation of a name allocates its histogram
	}
	h.h.Record(v)
	h.mu.Unlock()
}

// merge folds a complete histogram in, creating the buckets on first use.
func (h *Histogram) merge(src *stats.Histogram) {
	h.mu.Lock()
	if h.h == nil {
		h.h = stats.NewHistogram()
	}
	h.h.Merge(src)
	h.mu.Unlock()
}

// summary digests the histogram; ok is false if it was never written.
func (h *Histogram) summary() (s stats.Summary, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.h == nil {
		return s, false
	}
	return h.h.Summarize(), true
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether metrics will be recorded.
func (r *Registry) Enabled() bool { return r != nil }

// CounterHandle resolves counter name to its handle, creating it (unwritten)
// on first use. A nil registry returns a nil handle.
func (r *Registry) CounterHandle(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter) //xui:alloc first use of a name allocates its handle
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// HistogramHandle resolves histogram name to its handle, creating it
// (unwritten) on first use. A nil registry returns a nil handle.
func (r *Registry) HistogramHandle(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram) //xui:alloc first use of a name allocates its handle
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Add increments counter name by n.
//
//xui:noalloc
func (r *Registry) Add(name string, n uint64) { r.CounterHandle(name).Add(n) }

// Inc increments counter name by one.
//
//xui:noalloc
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Counter returns the current value of a counter (0 if never written).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// SetGauge records the latest value of gauge name.
//
//xui:noalloc
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns the last recorded value of a gauge (0 if never written).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Observe records one observation into histogram name.
//
//xui:noalloc
func (r *Registry) Observe(name string, v uint64) { r.HistogramHandle(name).Record(v) }

// MergeHistogram folds a complete histogram into the registry histogram
// name, creating it on first use. stats.Histogram merge is associative and
// commutative, so registry state after merging per-core or per-worker
// partials is identical regardless of contribution order — the property
// that keeps report fingerprints stable across -j 1 and -j N.
func (r *Registry) MergeHistogram(name string, h *stats.Histogram) {
	if r == nil || h == nil {
		return
	}
	r.HistogramHandle(name).merge(h)
}

// AddCycleAccount copies every category of a CycleAccount into counters
// under prefix — the bridge that unifies the Tier-2 per-core cycle
// accounting with the metrics registry. prefix should end with "/".
func (r *Registry) AddCycleAccount(prefix string, a *stats.CycleAccount) {
	if r == nil || a == nil {
		return
	}
	for _, cat := range a.Categories() {
		r.Add(prefix+cat, a.Get(cat))
	}
}

// Snapshot is the JSON-serialisable state of a registry.
type Snapshot struct {
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]stats.Summary `json:"histograms"`
}

// Snapshot digests the registry. Histograms are reduced to their standard
// summary (count/mean/p50/p95/p99/p99.9/min/max).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]stats.Summary{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		if c.written.Load() {
			s.Counters[k] = c.v.Load()
		}
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		if sum, ok := h.summary(); ok {
			s.Histograms[k] = sum
		}
	}
	return s
}

// Names returns every metric name in the registry, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for k, c := range r.counters {
		if c.written.Load() {
			names = append(names, k)
		}
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k, h := range r.hists {
		if _, ok := h.summary(); ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Export writes the snapshot as indented JSON. A nil registry exports an
// empty (still valid) snapshot.
func (r *Registry) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ExportFile writes the snapshot to path.
func (r *Registry) ExportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
