// Package lpm implements IPv4 longest-prefix-match routing for the
// paper's l3fwd experiments (§5.4: LPM algorithm, 16,000-entry routing
// table, 64-byte IPv4 UDP packets).
//
// A Table returns exactly the answers of DPDK's librte_lpm DIR-24-8
// table, ties included: among equal-length prefixes the latest add wins.
// The simulated cost of that lookup is netsim.PacketCost, a fixed
// per-packet charge, so the host layout here changes no simulated result.
//
// The host layout is a 16-8-8 multibit trie. A 64 Ki-entry first level
// resolves the top 16 bits; prefixes longer than /16 extend into a
// 256-entry group for the third byte, and prefixes longer than /24 into a
// group for the fourth. A lookup is at most three array reads, and the
// experiments' 16,000-route table takes about 16.5 MiB where DIR-24-8's
// flat 2^24-entry first level takes 48 MiB.
package lpm

import (
	"fmt"

	"xui/internal/sim"
)

const groupSize = 256

// An entry is one uint32: zero (no route), a group reference (flagGroup
// plus a 31-bit index into Table.groups) or a leaf (flagValid, the prefix
// length that installed it, and the next hop).
const (
	flagGroup   = 1 << 31
	flagValid   = 1 << 30
	depthShift  = 14
	maskDepth   = 0x3F << depthShift
	maskNextHop = 1<<depthShift - 1
)

// MaxNextHop is the largest routable next-hop identifier.
const MaxNextHop = maskNextHop

// Table is a 16-8-8 LPM table. NextHop values must fit in 14 bits.
type Table struct {
	root [1 << 16]uint32
	// groups holds the second- and third-level groups. Each is its own
	// allocation, so growing the table never copies one. There are at
	// most 2^16 + 2^24 groups, so a group index always fits its 31 bits.
	groups []*[groupSize]uint32
	routes int
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.routes }

// Add installs prefix ip/length → nextHop. Longer prefixes override
// shorter ones on overlapping ranges regardless of insertion order.
func (t *Table) Add(ip uint32, length int, nextHop uint16) error {
	if length < 1 || length > 32 {
		return fmt.Errorf("lpm: bad prefix length %d", length)
	}
	if nextHop > MaxNextHop {
		return fmt.Errorf("lpm: next hop %d exceeds %d", nextHop, MaxNextHop)
	}
	ip &= prefixMask(length)
	leaf := flagValid | uint32(length)<<depthShift | uint32(nextHop)
	switch {
	case length <= 16:
		t.fill(t.root[ip>>16:][:1<<(16-length)], leaf)
	case length <= 24:
		g := t.extend(&t.root[ip>>16])
		t.fill(g[ip>>8&0xFF:][:1<<(24-length)], leaf)
	default:
		g := t.extend(&t.root[ip>>16])
		g = t.extend(&g[ip>>8&0xFF])
		t.fill(g[ip&0xFF:][:1<<(32-length)], leaf)
	}
	t.routes++
	return nil
}

// fill installs leaf on every entry it is the longest match for: empty
// entries and leaves no longer than it. A group entry passes leaf on to
// its whole group.
func (t *Table) fill(entries []uint32, leaf uint32) {
	for i, e := range entries {
		switch {
		case e&flagGroup != 0:
			t.fill(t.groups[e&^flagGroup][:], leaf)
		case e&maskDepth <= leaf&maskDepth:
			entries[i] = leaf
		}
	}
}

// extend returns the group entry e refers to, first turning e into a
// reference to a new group seeded with e's leaf if it is not one yet.
func (t *Table) extend(e *uint32) *[groupSize]uint32 {
	if *e&flagGroup != 0 {
		return t.groups[*e&^flagGroup]
	}
	g := new([groupSize]uint32)
	if leaf := *e; leaf != 0 {
		for i := range g {
			g[i] = leaf
		}
	}
	*e = flagGroup | uint32(len(t.groups))
	t.groups = append(t.groups, g)
	return g
}

// Lookup returns the next hop for ip. ok is false when no route matches.
//
//xui:noalloc
func (t *Table) Lookup(ip uint32) (nextHop uint16, ok bool) {
	e := t.root[ip>>16]
	if e&flagGroup != 0 {
		e = t.groups[e&^flagGroup][ip>>8&0xFF]
		if e&flagGroup != 0 {
			e = t.groups[e&^flagGroup][ip&0xFF]
		}
	}
	return uint16(e & maskNextHop), e&flagValid != 0
}

func prefixMask(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

// GenerateTable builds a routing table with n random prefixes (the
// experiment's 16,000 entries), spread across realistic prefix lengths,
// plus a default-free fallback /8 cover so every address resolves.
func GenerateTable(n int, seed uint64) *Table {
	t := New()
	for _, r := range generateRoutes(n, seed) {
		_ = t.Add(r.ip, r.length, r.nextHop)
	}
	return t
}

// generateRoutes returns GenerateTable's routes in insertion order.
func generateRoutes(n int, seed uint64) []route {
	routes := make([]route, 0, 256+n)
	rng := sim.NewRNG(seed)
	// Cover the space with /8s so lookups always hit.
	for b := 0; b < 256; b++ {
		routes = append(routes, route{uint32(b) << 24, 8, uint16(b % 128)})
	}
	lengths := []int{16, 20, 22, 24, 24, 24, 28, 32} // BGP-ish mix, /24 heavy
	for i := 0; i < n; i++ {
		ip := uint32(rng.Uint64())
		l := lengths[rng.Intn(len(lengths))]
		nh := uint16(rng.Intn(MaxNextHop))
		routes = append(routes, route{ip, l, nh})
	}
	return routes
}

// Reference is a naive longest-prefix-match used to validate Table in
// property tests.
type Reference struct {
	prefixes []route
}

type route struct {
	ip      uint32
	length  int
	nextHop uint16
}

// Add installs a route.
func (r *Reference) Add(ip uint32, length int, nextHop uint16) {
	r.prefixes = append(r.prefixes, route{ip & prefixMask(length), length, nextHop})
}

// Lookup scans all prefixes for the longest match.
func (r *Reference) Lookup(ip uint32) (uint16, bool) {
	best := -1
	var nh uint16
	for _, p := range r.prefixes {
		// >= so the latest-added route wins among equal-length prefixes,
		// matching Table's update semantics.
		if ip&prefixMask(p.length) == p.ip && p.length >= best {
			best = p.length
			nh = p.nextHop
		}
	}
	return nh, best >= 0
}
