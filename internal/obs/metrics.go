package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"

	"xui/internal/stats"
)

// Registry is a namespace-keyed collection of counters, gauges and
// log-bucketed histograms (reusing the HdrHistogram-style buckets from
// internal/stats). Metric names are slash-separated component paths, e.g.
// "cpu0/delivered" or "vcore1/cycles/notify"; instruments are created on
// first use. A nil Registry discards everything. Registry is safe for
// concurrent use: each Simulator is single-threaded, but parallel sweep
// workers (internal/sweep) record into one shared registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64           //xui:guardedby mu
	gauges   map[string]float64          //xui:guardedby mu
	hists    map[string]*stats.Histogram //xui:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Enabled reports whether metrics will be recorded.
func (r *Registry) Enabled() bool { return r != nil }

// Add increments counter name by n.
//
//xui:noalloc
func (r *Registry) Add(name string, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

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
	return r.counters[name]
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
func (r *Registry) Observe(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = stats.NewHistogram() //xui:alloc first observation of a name allocates its histogram
		r.hists[name] = h
	}
	h.Record(v)
	r.mu.Unlock()
}

// MergeHistogram folds a complete histogram into the registry histogram
// name, creating it on first use. stats.Histogram merge is associative and
// commutative, so registry state after merging per-core or per-worker
// partials is identical regardless of contribution order — the property
// that keeps report fingerprints stable across -j 1 and -j N.
func (r *Registry) MergeHistogram(name string, h *stats.Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	dst := r.hists[name]
	if dst == nil {
		dst = stats.NewHistogram()
		r.hists[name] = dst
	}
	dst.Merge(h)
	r.mu.Unlock()
}

// AddCycleAccount copies every category of a CycleAccount into counters
// under prefix — the bridge that unifies the Tier-2 per-core cycle
// accounting with the metrics registry. prefix should end with "/".
func (r *Registry) AddCycleAccount(prefix string, a *stats.CycleAccount) {
	if r == nil || a == nil {
		return
	}
	r.mu.Lock()
	for _, cat := range a.Categories() {
		r.counters[prefix+cat] += a.Get(cat)
	}
	r.mu.Unlock()
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
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Summarize()
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
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.gauges {
		names = append(names, k)
	}
	for k := range r.hists {
		names = append(names, k)
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
