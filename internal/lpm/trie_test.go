package lpm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"xui/internal/sim"
)

// lookupDigest hashes tb's answers for n probes drawn from seed around
// routes, the routes tb was built from. Half the probes are uniform; the
// other half sit on the /16 and /24 boundaries around installed prefixes
// and on the prefixes' own first and last addresses, where a multilevel
// layout would split or seed a group.
func lookupDigest(tb *Table, routes []Route, n int, seed uint64) string {
	h := sha256.New()
	rng := sim.NewRNG(seed)
	buf := make([]byte, 0, 3*4096)
	for i := 0; i < n; i++ {
		var probe uint32
		if i%2 == 0 {
			probe = uint32(rng.Uint64())
		} else {
			r := routes[rng.Intn(len(routes))]
			ip := r.IP & prefixMask(r.Length)
			lo16, lo24 := ip&^0xFFFF, ip&^0xFF
			edges := [...]uint32{
				lo16 - 1, lo16, lo16 | 0xFFFF, (lo16 | 0xFFFF) + 1,
				lo24 - 1, lo24, lo24 | 0xFF, (lo24 | 0xFF) + 1,
				ip, ip | ^prefixMask(r.Length),
			}
			probe = edges[rng.Intn(len(edges))]
		}
		nh, ok := tb.Lookup(probe)
		var okb byte
		if ok {
			okb = 1
		}
		buf = append(buf, okb, byte(nh), byte(nh>>8))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestLookupDigest pins Lookup's answers, 2 M probes each, on the
// generated tables the experiments use (fig8 and scale: 16,000 routes, seed 7; netsim's tests:
// 1,000 routes, seed 3). The digests were taken
// from the DIR-24-8 layout this table replaced, so they prove the trie
// answers exactly as DPDK's librte_lpm would.
func TestLookupDigest(t *testing.T) {
	cases := []struct {
		n    int
		seed uint64
		want string
	}{
		{16000, 7, "b70f329c1b1be1ad8d3a4b3fa2db35222c6bd3eacf6275f3752a0f69838b6d0f"},
		{1000, 3, "e4f96b63dd5d6337eaf45633bf7f5db0a2c27ae00a7e4a7cb0e9d2087bd67c18"},
	}
	for _, c := range cases {
		tb := GenerateTable(c.n, c.seed)
		if got := lookupDigest(tb, generateRoutes(c.n, c.seed), 2<<20, 11); got != c.want {
			t.Errorf("GenerateTable(%d, %d): lookup digest %s, want %s", c.n, c.seed, got, c.want)
		}
	}
}

// TestLookupAllocFree pins Lookup at zero allocations: it sits on every
// simulated packet's path.
func TestLookupAllocFree(t *testing.T) {
	tb := GenerateTable(1000, 3)
	rng := sim.NewRNG(5)
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	got := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			tb.Lookup(a)
		}
	})
	if got != 0 {
		t.Errorf("Lookup allocates %.2f objects per 1024 calls, want 0", got)
	}
}

// TestTableHeapBudget bounds the experiments' 16,000-route table, which is
// built for every fig8 and scale run and for each xuiserve job that primes
// fig8. It holds 1.2 MiB of live heap, and its build allocates 2.2 MiB in
// all, route list included; the 16-8-8 layout before it held 16.9 MiB of
// dense 256-entry groups. The allocation budget fails a build that
// expands even one dense copy of those groups on the way.
func TestTableHeapBudget(t *testing.T) {
	const liveBudget, allocBudget = 4 << 20, 4 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := GenerateTable(16000, 7)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	alloc := after.TotalAlloc - before.TotalAlloc
	runtime.KeepAlive(tb)
	if live > liveBudget {
		t.Errorf("GenerateTable(16000, 7) holds %.1f MiB of live heap, budget %d MiB",
			float64(live)/(1<<20), liveBudget>>20)
	}
	if alloc > allocBudget {
		t.Errorf("GenerateTable(16000, 7) allocates %.1f MiB while it builds, budget %d MiB",
			float64(alloc)/(1<<20), allocBudget>>20)
	}
	t.Logf("live %.2f MiB, allocated %.2f MiB", float64(live)/(1<<20), float64(alloc)/(1<<20))
}

// TestManyExtendedSlots installs /32 routes in 17,000 distinct /24s, more
// than a 14-bit node index can name. Each route's own address must
// return its next hop and a neighbour in its /24 must miss; every 50th
// route's pair is also checked against the reference (a full scan of
// 17,000 prefixes per probe).
func TestManyExtendedSlots(t *testing.T) {
	const n = 17000
	ref := make(Reference, n)
	ips := make([]uint32, n)
	for i := range ips {
		// Multiplying by an odd constant permutes the 2^24 /24 indices,
		// so every route lands in its own /24.
		slot := uint32(i) * 2654435761 & (1<<24 - 1)
		ips[i] = slot<<8 | uint32(i*7+1)&0xFF
		ref[i] = Route{ips[i], 32, nextHopOf(i)}
	}
	tb := mustBuild(t, ref)
	wrong := 0
	check := func(probe uint32, nh uint16, ok bool, wnh uint16, wok bool) {
		if ok != wok || nh != wnh {
			if wrong < 5 {
				t.Errorf("lookup(%08x) = %d,%v, want %d,%v", probe, nh, ok, wnh, wok)
			}
			wrong++
		}
	}
	for i, ip := range ips {
		nh, ok := tb.Lookup(ip)
		check(ip, nh, ok, nextHopOf(i), true)
		nnh, nok := tb.Lookup(ip ^ 1)
		check(ip^1, nnh, nok, 0, false)
		if i%50 == 0 {
			rnh, rok := ref.Lookup(ip)
			check(ip, nh, ok, rnh, rok)
			rnh, rok = ref.Lookup(ip ^ 1)
			check(ip^1, nnh, nok, rnh, rok)
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong lookups over %d routes", wrong, n)
	}
}

func nextHopOf(i int) uint16 { return uint16(1 + i%MaxNextHop) }

// TestLayoutEdges builds route lists whose nodes hit the run encoding's
// edge cases, forward and reversed, and checks every address of each /16
// they touch against the reference. starts pins where the runs of the
// last node a lookup of probe visits begin, so each case keeps exercising
// the layout it names.
func TestLayoutEdges(t *testing.T) {
	var distinct24, distinct32 []Route
	var all []int
	for i := 0; i < 256; i++ {
		distinct24 = append(distinct24, Route{ip4(30, 1, byte(i), 0), 24, uint16(i + 1)})
		distinct32 = append(distinct32, Route{ip4(30, 2, 3, byte(i)), 32, uint16(i + 1)})
		all = append(all, i)
	}
	// Two adjacent equal-length prefixes with one next hop make one run.
	var straddle []Route
	for _, edge := range []byte{64, 128, 192} {
		straddle = append(straddle,
			Route{ip4(40, 1, edge-16, 0), 20, 7}, Route{ip4(40, 1, edge, 0), 20, 7},
			Route{ip4(40, 2, 3, edge-4), 30, 9}, Route{ip4(40, 2, 3, edge), 30, 9})
	}
	straddle = append(straddle, Route{ip4(40, 2, 3, 255), 32, 11})
	var under17 []Route
	for l := 25; l <= 32; l++ {
		// One /25–/32 alone in its /24, and one of each nested in 50.1.9.
		under17 = append(under17,
			Route{ip4(50, 1, byte(l), 0x80), l, uint16(l)},
			Route{ip4(50, 1, 9, ^byte(0)<<(32-l)), l, uint16(100 + l)})
	}
	under17 = append([]Route{{ip4(50, 1, 0, 0), 17, 1}}, under17...)

	cases := []struct {
		name   string
		routes []Route
		probe  uint32
		starts []int
	}{
		{"256 distinct entries, second level", distinct24, ip4(30, 1, 0, 0), all},
		{"256 distinct entries, third level", distinct32, ip4(30, 2, 3, 0), all},
		{"runs across word boundaries, second level", straddle, ip4(40, 1, 0, 0),
			[]int{0, 48, 80, 112, 144, 176, 208}},
		{"runs across word boundaries and a host route on 255, third level", straddle, ip4(40, 2, 3, 0),
			[]int{0, 60, 68, 124, 132, 188, 196, 255}},
		{"a word with no run start", []Route{
			{ip4(40, 3, 32, 0), 19, 5}, {ip4(40, 3, 64, 0), 19, 5},
			{ip4(40, 3, 96, 0), 19, 5}, {ip4(40, 3, 128, 0), 19, 5},
		}, ip4(40, 3, 0, 0), []int{0, 32, 160}},
		{"lengths 25 to 32 under a 17", under17, ip4(50, 1, 9, 0),
			[]int{0, 128, 192, 224, 240, 248, 252, 254, 255}},
		{"16 and shorter listed after longer routes", []Route{
			{ip4(60, 1, 2, 0), 24, 1}, {ip4(60, 1, 2, 128), 25, 2},
			{ip4(60, 1, 0, 0), 16, 3}, {ip4(60, 0, 0, 0), 8, 4},
		}, ip4(60, 1, 2, 0), []int{0, 128}},
		{"equal-length ties", []Route{
			{ip4(70, 1, 2, 0), 24, 1}, {ip4(70, 1, 2, 0), 24, 2},
			{ip4(70, 1, 2, 64), 26, 3}, {ip4(70, 1, 2, 64), 26, 4},
			{ip4(70, 1, 0, 0), 16, 5}, {ip4(70, 1, 0, 0), 16, 6},
			{ip4(70, 1, 2, 7), 32, 7}, {ip4(70, 1, 2, 7), 32, 8},
		}, ip4(70, 1, 2, 0), []int{0, 7, 8, 64, 128}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want [4]uint64
			for _, i := range c.starts {
				want[i>>6] |= 1 << (i & 63)
			}
			for _, ref := range []Reference{c.routes, reversed(c.routes)} {
				tb := mustBuild(t, ref)
				if got := lastRuns(tb, c.probe); got != want {
					t.Errorf("runs of the node for %08x = %016x, want %016x", c.probe, got, want)
				}
				checkEvery16(t, tb, ref)
			}
		})
	}
}

// lastRuns returns the run starts of the last node a lookup of ip visits.
func lastRuns(tb *Table, ip uint32) [4]uint64 {
	var runs [4]uint64
	e := tb.root[ip>>16]
	for _, i := range [2]uint8{uint8(ip >> 8), uint8(ip)} {
		if e&flagNode == 0 {
			break
		}
		runs = tb.nodes[e&^flagNode].runs
		e = tb.entry(e, i)
	}
	return runs
}

// checkEvery16 compares tb with ref on every address of each /16 that
// holds a route's first address.
func checkEvery16(t *testing.T, tb *Table, ref Reference) {
	t.Helper()
	seen := map[uint32]bool{}
	for _, r := range ref {
		p := r.IP & prefixMask(r.Length) >> 16
		if seen[p] {
			continue
		}
		seen[p] = true
		wrong := 0
		for ip := p << 16; ip <= p<<16|0xFFFF; ip++ {
			nh, ok := tb.Lookup(ip)
			if rnh, rok := ref.Lookup(ip); nh != rnh || ok != rok {
				if wrong < 5 {
					t.Errorf("lookup(%08x) = %d,%v, reference %d,%v", ip, nh, ok, rnh, rok)
				}
				wrong++
			}
		}
		if wrong > 0 {
			t.Errorf("%d wrong lookups in %08x/16", wrong, p<<16)
		}
	}
}

// FuzzLPMAgainstReference decodes the input into up to 64 routes (seven
// bytes each: address, length 1–32, 14-bit next hop), builds tables from
// them in forward and in reverse order, and checks both tables against a
// reference over the same list. Probes are each route's first and last
// address and their outside neighbours, plus every 4-byte window of the
// input as a raw address.
func FuzzLPMAgainstReference(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 7, 0, 1, 10, 1, 2, 128, 24, 0, 2})
	f.Add([]byte{20, 5, 5, 77, 31, 0, 4, 20, 5, 5, 0, 25, 0, 3, 20, 0, 0, 0, 7, 0, 1})
	f.Add([]byte{192, 168, 1, 1, 15, 63, 255, 192, 168, 1, 1, 15, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var routes []Route
		for b := data; len(b) >= 7 && len(routes) < 64; b = b[7:] {
			routes = append(routes, Route{
				IP:      binary.BigEndian.Uint32(b),
				Length:  1 + int(b[4])%32,
				NextHop: binary.BigEndian.Uint16(b[5:]) & MaxNextHop,
			})
		}
		rf, rr := Reference(routes), Reference(reversed(routes))
		fwd, rev := mustBuild(t, rf), mustBuild(t, rr)
		var probes []uint32
		for _, r := range routes {
			lo := r.IP & prefixMask(r.Length)
			hi := lo | ^prefixMask(r.Length)
			probes = append(probes, lo, hi, lo-1, hi+1)
		}
		for i := 0; i+4 <= len(data); i++ {
			probes = append(probes, binary.BigEndian.Uint32(data[i:]))
		}
		for _, p := range probes {
			for _, c := range [2]struct {
				tb  *Table
				ref Reference
			}{{fwd, rf}, {rev, rr}} {
				nh, ok := c.tb.Lookup(p)
				rnh, rok := c.ref.Lookup(p)
				if ok != rok || nh != rnh {
					t.Fatalf("lookup(%08x) = %d,%v, reference %d,%v", p, nh, ok, rnh, rok)
				}
			}
		}
	})
}

// BenchmarkLookupSpread looks up 4 M uniform addresses in turn, so the
// table's footprint, not a cache-warm working set, sets the cost (compare
// BenchmarkLookup's 4,096 addresses).
func BenchmarkLookupSpread(b *testing.B) {
	tb := GenerateTable(16000, 7)
	rng := sim.NewRNG(3)
	addrs := make([]uint32, 1<<22)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addrs[i&(1<<22-1)])
	}
}

// BenchmarkGenerateTable builds the experiments' 16,000-route table.
func BenchmarkGenerateTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateTable(16000, 7)
	}
}
