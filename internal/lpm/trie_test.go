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
func lookupDigest(tb *Table, routes []route, n int, seed uint64) string {
	h := sha256.New()
	rng := sim.NewRNG(seed)
	buf := make([]byte, 0, 3*4096)
	for i := 0; i < n; i++ {
		var probe uint32
		if i%2 == 0 {
			probe = uint32(rng.Uint64())
		} else {
			r := routes[rng.Intn(len(routes))]
			ip := r.ip & prefixMask(r.length)
			lo16, lo24 := ip&^0xFFFF, ip&^0xFF
			edges := [...]uint32{
				lo16 - 1, lo16, lo16 | 0xFFFF, (lo16 | 0xFFFF) + 1,
				lo24 - 1, lo24, lo24 | 0xFF, (lo24 | 0xFF) + 1,
				ip, ip | ^prefixMask(r.length),
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

// TestTableHeapBudget bounds the live heap of the experiments' 16,000-route
// table: it is built for every fig8 and scale run and for each xuiserve
// job that primes fig8.
func TestTableHeapBudget(t *testing.T) {
	const budget = 24 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := GenerateTable(16000, 7)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(tb)
	if live > budget {
		t.Errorf("GenerateTable(16000, 7) holds %.1f MiB of live heap, budget %d MiB",
			float64(live)/(1<<20), budget>>20)
	}
}

// TestManyExtendedSlots installs /32 routes in 17,000 distinct /24s, more
// than a 14-bit group index can name. Each route's own address must
// return its next hop and a neighbour in its /24 must miss; every 50th
// route's pair is also checked against the reference (a full scan of
// 17,000 prefixes per probe).
func TestManyExtendedSlots(t *testing.T) {
	const n = 17000
	tb := New()
	var ref Reference
	ips := make([]uint32, n)
	for i := range ips {
		// Multiplying by an odd constant permutes the 2^24 /24 indices,
		// so every route lands in its own /24.
		slot := uint32(i) * 2654435761 & (1<<24 - 1)
		ips[i] = slot<<8 | uint32(i*7+1)&0xFF
		if err := tb.Add(ips[i], 32, nextHopOf(i)); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
		ref.Add(ips[i], 32, nextHopOf(i))
	}
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

// FuzzLPMAgainstReference decodes the input into up to 64 routes (seven
// bytes each: address, length 1–32, 14-bit next hop), installs them in
// forward and in reverse order, and checks both tables against a
// reference fed in the same order. Probes are each route's first and last
// address and their outside neighbours, plus every 4-byte window of the
// input as a raw address.
func FuzzLPMAgainstReference(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 7, 0, 1, 10, 1, 2, 128, 24, 0, 2})
	f.Add([]byte{20, 5, 5, 77, 31, 0, 4, 20, 5, 5, 0, 25, 0, 3, 20, 0, 0, 0, 7, 0, 1})
	f.Add([]byte{192, 168, 1, 1, 15, 63, 255, 192, 168, 1, 1, 15, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var routes []route
		for b := data; len(b) >= 7 && len(routes) < 64; b = b[7:] {
			routes = append(routes, route{
				ip:      binary.BigEndian.Uint32(b),
				length:  1 + int(b[4])%32,
				nextHop: binary.BigEndian.Uint16(b[5:]) & MaxNextHop,
			})
		}
		fwd, rev := New(), New()
		var rf, rr Reference
		for i, r := range routes {
			if err := fwd.Add(r.ip, r.length, r.nextHop); err != nil {
				t.Fatal(err)
			}
			rf.Add(r.ip, r.length, r.nextHop)
			q := routes[len(routes)-1-i]
			if err := rev.Add(q.ip, q.length, q.nextHop); err != nil {
				t.Fatal(err)
			}
			rr.Add(q.ip, q.length, q.nextHop)
		}
		var probes []uint32
		for _, r := range routes {
			lo := r.ip & prefixMask(r.length)
			hi := lo | ^prefixMask(r.length)
			probes = append(probes, lo, hi, lo-1, hi+1)
		}
		for i := 0; i+4 <= len(data); i++ {
			probes = append(probes, binary.BigEndian.Uint32(data[i:]))
		}
		for _, p := range probes {
			for _, c := range [2]struct {
				tb  *Table
				ref *Reference
			}{{fwd, &rf}, {rev, &rr}} {
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
