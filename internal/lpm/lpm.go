// Package lpm implements IPv4 longest-prefix-match routing for the
// paper's l3fwd experiments (§5.4: LPM algorithm, 16,000-entry routing
// table, 64-byte IPv4 UDP packets).
//
// A Table returns exactly the answers of DPDK's librte_lpm DIR-24-8
// table, ties included: among equal-length prefixes the later route wins.
// The simulated cost of that lookup is netsim.PacketCost, a fixed
// per-packet charge, so the host layout here changes no simulated result.
//
// The host layout is an immutable, compressed 16-8-8 trie, built once
// from a route list. A 64 Ki-entry root resolves the top 16 bits;
// prefixes longer than /16 extend into a node for the third byte, and
// prefixes longer than /24 into a node for the fourth. A node stands for
// 256 entries but stores each run of equal entries once: a 256-bit
// bitmap marks where runs start, and an entry's run is found by counting
// the set bits up to it (Poptrie's technique, Asai & Ohara, SIGCOMM 2015).
// The experiments' 16,000-route table takes 1.2 MiB: the 256 KiB root,
// 16,548 nodes of 48 B and 51,725 run entries of 4 B.
package lpm

import (
	"fmt"
	"math/bits"

	"xui/internal/sim"
)

// An entry is one uint32: zero (no route), a node reference (flagNode
// plus a 31-bit index into Table.nodes) or a leaf (flagValid, the length
// of the prefix that installed it, and the next hop). Build uses the
// length to let a longer prefix override a shorter one.
const (
	flagNode    = 1 << 31
	flagValid   = 1 << 30
	depthShift  = 14
	maskDepth   = 0x3F << depthShift
	maskNextHop = 1<<depthShift - 1
)

// MaxNextHop is the largest routable next-hop identifier.
const MaxNextHop = maskNextHop

// Route is one routing-table entry: IP/Length → NextHop. Bits of IP past
// the prefix length are ignored.
type Route struct {
	IP      uint32
	Length  int
	NextHop uint16
}

// Table is an immutable LPM table. NextHop values fit in 14 bits.
type Table struct {
	root [1 << 16]uint32
	// nodes are the second- and third-level nodes. There are at most
	// 2^16 + 2^24 of them, so a node index always fits its 31 bits.
	nodes []node
	// leaves holds every node's runs, one entry per run, in node order.
	leaves []uint32
	routes int
}

// node stands for 256 entries, one per value of an address byte. Bit i of
// runs is set when entry i starts a run: entry 0, and each entry that
// differs from the one before it. base[w] plus the count of run starts in
// word w up to and including entry i is the leaves index of i's run.
type node struct {
	runs [4]uint64
	base [4]uint32
}

// Len returns the number of routes the table was built from.
func (t *Table) Len() int { return t.routes }

// Lookup returns the next hop for ip. ok is false when no route matches.
//
//xui:noalloc
func (t *Table) Lookup(ip uint32) (nextHop uint16, ok bool) {
	e := t.root[ip>>16]
	if e&flagNode != 0 {
		e = t.entry(e, uint8(ip>>8))
		if e&flagNode != 0 {
			e = t.entry(e, uint8(ip))
		}
	}
	return uint16(e & maskNextHop), e&flagValid != 0
}

// entry returns entry i of the node that ref names.
//
//xui:noalloc
func (t *Table) entry(ref uint32, i uint8) uint32 {
	n := &t.nodes[ref&^flagNode]
	w := i >> 6
	upTo := n.runs[w] & (^uint64(0) >> (63 - i&63))
	return t.leaves[n.base[w]+uint32(bits.OnesCount64(upTo))]
}

// Build returns the table for routes. Each address maps to its longest
// covering prefix; among equal lengths, the later route in the list wins.
// It fails on a length outside 1–32 or a next hop above MaxNextHop.
func Build(routes []Route) (*Table, error) {
	t := &Table{routes: len(routes)}
	// Routes of /16 or shorter go straight to the root. Longer ones are
	// counted per /16 so that they can be bucketed in list order.
	end := make([]int32, 1<<16)
	deep := 0
	for _, r := range routes {
		if r.Length < 1 || r.Length > 32 {
			return nil, fmt.Errorf("lpm: bad prefix length %d", r.Length)
		}
		if r.NextHop > MaxNextHop {
			return nil, fmt.Errorf("lpm: next hop %d exceeds %d", r.NextHop, MaxNextHop)
		}
		ip := r.IP & prefixMask(r.Length)
		if r.Length <= 16 {
			install(t.root[ip>>16:][:1<<(16-r.Length)], leafOf(r))
			continue
		}
		end[ip>>16]++
		if r.Length > 24 {
			deep++
		}
	}
	// Size the slabs before filling them. A node's runs start only at
	// entry 0 and at the edges of the ranges its routes cover, and a
	// /25–/32 route covers one entry of its /16's node besides a range of
	// its /24's node.
	nodes, leaves := deep, 3*deep
	var total int32
	for p, c := range end {
		end[p] = total
		total += c
		if c > 0 {
			nodes++
			leaves += min(groupSize, 1+2*int(c))
		}
	}
	long := make([]Route, total)
	for _, r := range routes {
		if r.Length > 16 {
			r.IP &= prefixMask(r.Length)
			long[end[r.IP>>16]] = r
			end[r.IP>>16]++
		}
	}
	// Now end[p] is where /16 p's routes end and the next /16's begin.
	t.nodes = make([]node, 0, nodes)
	t.leaves = make([]uint32, 0, leaves)

	var second, third group // scratch, reused for every /16
	lo := int32(0)
	for p, hi := range end {
		if hi > lo {
			t.root[p] = t.expand(&second, &third, t.root[p], long[lo:hi])
		}
		lo = hi
	}
	return t, nil
}

const groupSize = 256

// group is a dense 256-entry scratch group. cuts marks the entries where
// a run can start: entry 0 and both edges of every range written since
// reset. No other entry can differ from the one before it.
type group struct {
	e    [groupSize]uint32
	cuts [4]uint64
}

func (g *group) reset(cover uint32) {
	for i := range g.e {
		g.e[i] = cover
	}
	g.cuts = [4]uint64{1}
}

// install installs leaf on entries [lo, lo+n).
func (g *group) install(lo, n int, leaf uint32) {
	install(g.e[lo:][:n], leaf)
	g.cut(lo)
	g.cut(lo + n)
}

// link points entry i at the node ref names.
func (g *group) link(i int, ref uint32) {
	g.e[i] = ref
	g.cut(i)
	g.cut(i + 1)
}

func (g *group) cut(i int) {
	if i < groupSize {
		g.cuts[i>>6] |= 1 << (i & 63)
	}
}

// expand encodes the /16 whose root entry is cover and whose longer
// routes are rs, in list order, and returns the reference to its node.
// second and third are its scratch groups for the third and fourth bytes.
func (t *Table) expand(second, third *group, cover uint32, rs []Route) uint32 {
	second.reset(cover)
	var deep [4]uint64 // third bytes with routes longer than /24
	for _, r := range rs {
		i := int(r.IP >> 8 & 0xFF)
		if r.Length <= 24 {
			second.install(i, 1<<(24-r.Length), leafOf(r))
		} else {
			deep[i>>6] |= 1 << (i & 63)
		}
	}
	// One pass over rs per third byte in deep, at most 256 of them, keeps
	// a /16's cost linear in its routes.
	for w, m := range deep {
		for ; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			third.reset(second.e[i])
			for _, r := range rs {
				if r.Length > 24 && int(r.IP>>8&0xFF) == i {
					third.install(int(r.IP&0xFF), 1<<(32-r.Length), leafOf(r))
				}
			}
			second.link(i, t.encode(third))
		}
	}
	return t.encode(second)
}

// encode appends g as a node and returns the reference to it.
func (t *Table) encode(g *group) uint32 {
	var n node
	for w, cuts := range g.cuts {
		// The index of the run in force before the word's first entry.
		// Word 0 has none: its base is one less than its own first
		// run's, 2^32-1 in the table's first node, and entry 0's run
		// start brings it back.
		n.base[w] = uint32(len(t.leaves)) - 1
		for ; cuts != 0; cuts &= cuts - 1 {
			j := bits.TrailingZeros64(cuts)
			if i := w<<6 | j; i == 0 || g.e[i] != g.e[i-1] {
				n.runs[w] |= 1 << j
				t.leaves = append(t.leaves, g.e[i])
			}
		}
	}
	t.nodes = append(t.nodes, n)
	return flagNode | uint32(len(t.nodes)-1)
}

// install writes leaf over every entry it is the longest match for:
// empty entries and leaves from prefixes no longer than its own.
func install(entries []uint32, leaf uint32) {
	for i, e := range entries {
		if e&maskDepth <= leaf&maskDepth {
			entries[i] = leaf
		}
	}
}

func leafOf(r Route) uint32 {
	return flagValid | uint32(r.Length)<<depthShift | uint32(r.NextHop)
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
	t, err := Build(generateRoutes(n, seed))
	if err != nil {
		panic(err) // generateRoutes makes only valid routes
	}
	return t
}

// generateRoutes returns GenerateTable's routes in list order.
func generateRoutes(n int, seed uint64) []Route {
	routes := make([]Route, 0, 256+n)
	rng := sim.NewRNG(seed)
	// Cover the space with /8s so lookups always hit.
	for b := 0; b < 256; b++ {
		routes = append(routes, Route{uint32(b) << 24, 8, uint16(b % 128)})
	}
	lengths := []int{16, 20, 22, 24, 24, 24, 28, 32} // BGP-ish mix, /24 heavy
	for i := 0; i < n; i++ {
		ip := uint32(rng.Uint64())
		l := lengths[rng.Intn(len(lengths))]
		nh := uint16(rng.Intn(MaxNextHop))
		routes = append(routes, Route{ip, l, nh})
	}
	return routes
}
