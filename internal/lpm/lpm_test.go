package lpm

import (
	"testing"
	"testing/quick"

	"xui/internal/sim"
)

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// Reference is a naive longest-prefix match that Table is checked
// against: a scan of its routes in list order.
type Reference []Route

// Lookup returns the next hop of the longest prefix covering ip.
func (r Reference) Lookup(ip uint32) (uint16, bool) {
	best := -1
	var nh uint16
	for _, p := range r {
		// >= so the later route wins among equal-length prefixes,
		// matching Build's rule.
		if m := prefixMask(p.Length); ip&m == p.IP&m && p.Length >= best {
			best = p.Length
			nh = p.NextHop
		}
	}
	return nh, best >= 0
}

// mustBuild builds routes into a table, failing t on a build error.
func mustBuild(t testing.TB, routes []Route) *Table {
	t.Helper()
	tb, err := Build(routes)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBasicLookup(t *testing.T) {
	tb := mustBuild(t, nil)
	if _, ok := tb.Lookup(ip4(10, 0, 0, 1)); ok {
		t.Fatalf("empty table matched")
	}
	tb = mustBuild(t, []Route{{ip4(10, 0, 0, 0), 8, 1}})
	if nh, ok := tb.Lookup(ip4(10, 200, 3, 4)); !ok || nh != 1 {
		t.Errorf("10/8 lookup = %d,%v", nh, ok)
	}
	if _, ok := tb.Lookup(ip4(11, 0, 0, 1)); ok {
		t.Errorf("11.0.0.1 matched 10/8")
	}
}

func TestLongestMatchWins(t *testing.T) {
	tb := mustBuild(t, []Route{
		{ip4(10, 0, 0, 0), 8, 1},
		{ip4(10, 1, 0, 0), 16, 2},
		{ip4(10, 1, 2, 0), 24, 3},
		{ip4(10, 1, 2, 128), 25, 4},
		{ip4(10, 1, 2, 130), 32, 5},
	})
	cases := []struct {
		ip   uint32
		want uint16
	}{
		{ip4(10, 9, 9, 9), 1},
		{ip4(10, 1, 9, 9), 2},
		{ip4(10, 1, 2, 5), 3},
		{ip4(10, 1, 2, 200), 4},
		{ip4(10, 1, 2, 130), 5},
	}
	for _, c := range cases {
		if nh, ok := tb.Lookup(c.ip); !ok || nh != c.want {
			t.Errorf("lookup(%08x) = %d,%v want %d", c.ip, nh, ok, c.want)
		}
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	// Longer-first and shorter-first must give identical results.
	routes := []Route{
		{ip4(20, 0, 0, 0), 8, 1},
		{ip4(20, 5, 0, 0), 16, 2},
		{ip4(20, 5, 5, 0), 26, 3},
		{ip4(20, 5, 5, 77), 32, 4},
	}
	a, b := mustBuild(t, routes), mustBuild(t, reversed(routes))
	probes := []uint32{
		ip4(20, 9, 9, 9), ip4(20, 5, 9, 9), ip4(20, 5, 5, 3),
		ip4(20, 5, 5, 77), ip4(20, 5, 5, 120), ip4(20, 5, 5, 200),
	}
	for _, p := range probes {
		na, oa := a.Lookup(p)
		nb, ob := b.Lookup(p)
		if na != nb || oa != ob {
			t.Errorf("order dependence at %08x: %d,%v vs %d,%v", p, na, oa, nb, ob)
		}
	}
}

func reversed(routes []Route) []Route {
	rev := make([]Route, len(routes))
	for i := range routes {
		rev[i] = routes[len(routes)-1-i]
	}
	return rev
}

func TestValidation(t *testing.T) {
	if _, err := Build([]Route{{0, 0, 1}}); err == nil {
		t.Errorf("length 0 accepted")
	}
	if _, err := Build([]Route{{0, 33, 1}}); err == nil {
		t.Errorf("length 33 accepted")
	}
	if _, err := Build([]Route{{0, 8, MaxNextHop + 1}}); err == nil {
		t.Errorf("oversized next hop accepted")
	}
}

// Property: the table agrees with the naive reference on random route sets.
func TestAgainstReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		nRoutes := 1 + rng.Intn(40)
		ref := make(Reference, nRoutes)
		for i := range ref {
			ip := uint32(rng.Uint64())
			length := 1 + rng.Intn(32)
			nh := uint16(rng.Intn(MaxNextHop))
			ref[i] = Route{ip, length, nh}
		}
		tb, err := Build(ref)
		if err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			var probe uint32
			if rng.Bool(0.5) && nRoutes > 0 {
				// Probe near an installed prefix to stress boundaries.
				r := ref[rng.Intn(len(ref))]
				probe = r.IP&prefixMask(r.Length) | uint32(rng.Intn(256))
			} else {
				probe = uint32(rng.Uint64())
			}
			nh, ok := tb.Lookup(probe)
			rnh, rok := ref.Lookup(probe)
			if ok != rok {
				return false
			}
			if ok && nh != rnh {
				// Ambiguity: two same-length prefixes covering the probe —
				// both implementations pick the later route; mismatch means
				// a real bug.
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGenerateTable(t *testing.T) {
	tb := GenerateTable(16000, 7)
	if tb.Len() < 16000 {
		t.Fatalf("generated %d routes", tb.Len())
	}
	rng := sim.NewRNG(9)
	for i := 0; i < 100000; i++ {
		if _, ok := tb.Lookup(uint32(rng.Uint64())); !ok {
			t.Fatalf("unroutable address with /8 cover present")
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	tb := GenerateTable(16000, 7)
	rng := sim.NewRNG(3)
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(addrs[i&4095])
	}
}
