// Package mem provides the cache-hierarchy timing model used by the
// pipeline simulator in internal/cpu.
//
// Two mechanisms matter for the paper's arguments and both are modelled
// explicitly:
//
//  1. Private-hierarchy locality — workload traces hit or miss the L1/L2/LLC
//     depending on their real access footprints (pointer chasing with a
//     working set larger than the LLC genuinely misses to DRAM).
//  2. Cross-core transfer of notification lines — a UPID or poll flag
//     written by a sender core is invalidated in the receiver's private
//     caches, so the receiver's next read pays a cache-to-cache transfer.
//     This is the "reading the UPID is equivalent to polling" cost of §4.2.
package mem

// Latencies in cycles at 2 GHz, Sapphire-Rapids-like. These feed both the
// pipeline model and the calibration constants in internal/core.
const (
	LatL1        = 5
	LatL2        = 16
	LatLLC       = 60
	LatDRAM      = 230
	LatCrossCore = 100 // cache-to-cache transfer of a modified line
	LineSize     = 64
)

// cache is one set-associative level with LRU replacement. It tracks only
// presence (tags), not data — this is a timing model.
type cache struct {
	sets int
	// setMask replaces the per-access modulo with a mask when sets is a
	// power of two — true for every default geometry (L1 64, L2 2048,
	// LLC 32768 sets); pow2 gates it so odd custom geometries still
	// divide. The index function is unchanged either way.
	setMask uint64
	pow2    bool
	ways    int
	lineLog uint
	tags    [][]uint64 // per set, MRU-first

	// Epoch-stamped lazy invalidation: reset() bumps epoch in O(1) and a
	// set whose stamp is stale is treated as empty (and lazily re-stamped
	// + truncated on first touch). This is what makes pooled hierarchies
	// cheap — an LLC has 32 K sets, and walking them per reuse would cost
	// more than the run it serves.
	epoch    uint64
	setEpoch []uint64
}

func newCache(sizeBytes, ways int) *cache {
	sets := sizeBytes / LineSize / ways
	if sets < 1 {
		sets = 1
	}
	c := &cache{sets: sets, ways: ways, lineLog: 6}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		c.pow2 = true
	}
	c.tags = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, 0, ways)
	}
	c.setEpoch = make([]uint64, sets)
	return c
}

// lookup returns line's set, first truncating it if it predates the
// current epoch.
func (c *cache) lookup(line uint64) (uint64, []uint64) {
	var idx uint64
	if c.pow2 {
		idx = line & c.setMask
	} else {
		idx = line % uint64(c.sets)
	}
	if c.setEpoch[idx] != c.epoch {
		c.setEpoch[idx] = c.epoch
		c.tags[idx] = c.tags[idx][:0]
	}
	return idx, c.tags[idx]
}

// access looks up line; on miss it fills (evicting LRU) and returns false.
func (c *cache) access(line uint64) bool {
	idx, set := c.lookup(line)
	if len(set) > 0 && set[0] == line {
		return true // already MRU; repeat touches are the common case
	}
	for i := 1; i < len(set); i++ {
		if set[i] == line {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	// Miss: insert at MRU, evict LRU if full.
	if len(set) < c.ways {
		set = append(set, 0)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
	c.tags[idx] = set
	return false
}

// invalidate removes line if present, reporting whether it was.
func (c *cache) invalidate(line uint64) bool {
	idx, set := c.lookup(line)
	for i, t := range set {
		if t == line {
			c.tags[idx] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// reset empties the cache in O(1) by advancing the epoch.
func (c *cache) reset() { c.epoch++ }

// Hierarchy is one core's private L1D + L2 in front of a shared LLC. The
// LLC may be shared between Hierarchy instances via NewSystem.
type Hierarchy struct {
	l1  *cache
	l2  *cache
	llc *cache // shared; may be nil for an isolated core

	// Stats.
	Accesses, L1Hits, L2Hits, LLCHits, DRAMFills uint64
}

// System is a multi-core memory system with a shared LLC and a coherence
// directory for notification lines.
type System struct {
	llc   *cache
	cores []*Hierarchy
	// owner maps a shared line to the core that last wrote it; -1 = memory.
	owner map[uint64]int
}

// Config sizes the hierarchy. Zero values select the defaults from the
// paper's Table 3 platform (32 KB 8-way L1; SPR-like 2 MB 16-way L2,
// 1.875 MB/core 15-way LLC slice — we model a 30 MB shared LLC).
type Config struct {
	L1Bytes, L1Ways   int
	L2Bytes, L2Ways   int
	LLCBytes, LLCWays int
}

func (c *Config) fill() {
	if c.L1Bytes == 0 {
		c.L1Bytes, c.L1Ways = 32<<10, 8
	}
	if c.L2Bytes == 0 {
		c.L2Bytes, c.L2Ways = 2<<20, 16
	}
	if c.LLCBytes == 0 {
		c.LLCBytes, c.LLCWays = 30<<20, 15
	}
}

// NewSystem builds a memory system with n cores sharing one LLC.
func NewSystem(n int, cfg Config) *System {
	cfg.fill()
	s := &System{
		llc:   newCache(cfg.LLCBytes, cfg.LLCWays),
		owner: make(map[uint64]int),
	}
	for i := 0; i < n; i++ {
		s.cores = append(s.cores, &Hierarchy{
			l1:  newCache(cfg.L1Bytes, cfg.L1Ways),
			l2:  newCache(cfg.L2Bytes, cfg.L2Ways),
			llc: s.llc,
		})
	}
	return s
}

// Core returns core i's private hierarchy.
func (s *System) Core(i int) *Hierarchy { return s.cores[i] }

// NewHierarchy builds a single isolated core (its own LLC), convenient for
// single-core pipeline studies.
func NewHierarchy(cfg Config) *Hierarchy {
	cfg.fill()
	return &Hierarchy{
		l1:  newCache(cfg.L1Bytes, cfg.L1Ways),
		l2:  newCache(cfg.L2Bytes, cfg.L2Ways),
		llc: newCache(cfg.LLCBytes, cfg.LLCWays),
	}
}

// Reset empties the hierarchy's caches (O(1) per level, via epoch
// stamping) and zeroes its stats, making a pooled hierarchy
// indistinguishable from a freshly built one. It is meant for isolated
// hierarchies (NewHierarchy): on a System-attached hierarchy it would
// also empty the *shared* LLC under the other cores.
//
//xui:noalloc
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	if h.llc != nil {
		h.llc.reset()
	}
	h.Accesses, h.L1Hits, h.L2Hits, h.LLCHits, h.DRAMFills = 0, 0, 0, 0, 0
}

// Load returns the latency in cycles for a load of addr through the private
// hierarchy, updating residency.
func (h *Hierarchy) Load(addr uint64) int {
	line := addr / LineSize
	h.Accesses++
	if h.l1.access(line) {
		h.L1Hits++
		return LatL1
	}
	if h.l2.access(line) {
		h.L2Hits++
		return LatL2
	}
	if h.llc != nil && h.llc.access(line) {
		h.LLCHits++
		return LatLLC
	}
	h.DRAMFills++
	return LatDRAM
}

// Store returns the latency for a store; stores allocate like loads (write-
// allocate) but retire through the store queue, so the pipeline mostly hides
// this latency.
func (h *Hierarchy) Store(addr uint64) int { return h.Load(addr) }

// SharedRead models core reading a coherence-tracked notification line.
// If another core wrote the line since this core's last access, the read is
// a cache-to-cache transfer (LatCrossCore); otherwise it is an L1 hit. This
// captures polling (§2) and the receiver's UPID read (§3.3) with one
// mechanism.
func (s *System) SharedRead(core int, addr uint64) int {
	line := addr / LineSize
	if o, ok := s.owner[line]; ok && o != core && o >= 0 {
		// Transfer ownership to reader (line becomes shared; next local
		// read hits).
		s.owner[line] = core
		s.cores[core].Accesses++
		s.cores[core].l1.access(line)
		return LatCrossCore
	}
	if _, ok := s.owner[line]; !ok {
		s.owner[line] = core
	}
	return s.cores[core].Load(addr)
}

// SharedWrite models core writing a notification line: it takes ownership
// and invalidates all other cores' copies. The returned latency is what the
// *writer* pays; if another core held the line modified, the RFO (read for
// ownership) crosses the interconnect.
func (s *System) SharedWrite(core int, addr uint64) int {
	line := addr / LineSize
	lat := LatL1
	if o, ok := s.owner[line]; ok && o != core && o >= 0 {
		lat = LatCrossCore
	}
	s.owner[line] = core
	for i, h := range s.cores {
		if i != core {
			h.l1.invalidate(line)
			h.l2.invalidate(line)
		}
	}
	s.cores[core].l1.access(line)
	return lat
}

// Owner returns the core owning a shared line, or -1 if untouched.
func (s *System) Owner(addr uint64) int {
	if o, ok := s.owner[addr/LineSize]; ok {
		return o
	}
	return -1
}
