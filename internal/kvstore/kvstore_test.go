package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"xui/internal/sim"
)

func TestPutGet(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k1"), []byte("v1"))
	st.Put([]byte("k2"), []byte("v2"))
	if v, ok := st.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Errorf("get k1 = %q,%v", v, ok)
	}
	if _, ok := st.Get([]byte("nope")); ok {
		t.Errorf("missing key found")
	}
	st.Put([]byte("k1"), []byte("v1b"))
	if v, _ := st.Get([]byte("k1")); string(v) != "v1b" {
		t.Errorf("update lost: %q", v)
	}
}

func TestGetAcrossFlush(t *testing.T) {
	st := Open(1)
	st.FlushThreshold = 10
	for i := 0; i < 100; i++ {
		st.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%d", i)))
	}
	if len(st.runs) == 0 {
		t.Fatalf("no flushes happened")
	}
	for i := 0; i < 100; i++ {
		v, ok := st.Get([]byte(fmt.Sprintf("key%03d", i)))
		if !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("key%03d = %q,%v", i, v, ok)
		}
	}
}

func TestNewestVersionWinsAcrossRuns(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), []byte("old"))
	st.Flush()
	st.Put([]byte("k"), []byte("new"))
	st.Flush()
	if v, _ := st.Get([]byte("k")); string(v) != "new" {
		t.Errorf("got %q, want newest", v)
	}
	// And via scan:
	st.Scan([]byte("k"), 1, func(k, v []byte) {
		if string(v) != "new" {
			t.Errorf("scan got %q", v)
		}
	})
}

func TestScanOrderedAndBounded(t *testing.T) {
	st := Open(1)
	st.FlushThreshold = 7 // force several runs
	for i := 99; i >= 0; i-- {
		st.Put([]byte(fmt.Sprintf("key%03d", i)), []byte{byte(i)})
	}
	var keys []string
	n := st.Scan([]byte("key010"), 25, func(k, v []byte) {
		keys = append(keys, string(k))
	})
	if n != 25 || len(keys) != 25 {
		t.Fatalf("scan returned %d", n)
	}
	if keys[0] != "key010" {
		t.Errorf("scan starts at %q", keys[0])
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("scan unordered: %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Errorf("duplicate key %q", keys[i])
		}
	}
}

func TestScanPastEnd(t *testing.T) {
	st := Open(1)
	st.Put([]byte("a"), []byte("1"))
	n := st.Scan([]byte("z"), 10, func(k, v []byte) {})
	if n != 0 {
		t.Errorf("scan past end returned %d", n)
	}
}

// Property: the store agrees with a plain map + sort on any operation mix,
// and a Scan bounded by a drawn limit returns exactly the model's first
// limit keys at or above start, even when the limit cuts across runs.
func TestStoreAgainstMapProperty(t *testing.T) {
	type op struct {
		Put bool
		K   uint8
		V   uint8
	}
	f := func(ops []op, scanStart, scanLimit uint8) bool {
		st := Open(7)
		st.FlushThreshold = 5 // flush aggressively to stress merge paths
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.K)
			if o.Put {
				v := fmt.Sprintf("v%d", o.V)
				st.Put([]byte(k), []byte(v))
				model[k] = v
			} else {
				got, ok := st.Get([]byte(k))
				want, wok := model[k]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			}
		}
		start := fmt.Sprintf("k%03d", scanStart)
		var wantKeys []string
		for k := range model {
			if k >= start {
				wantKeys = append(wantKeys, k)
			}
		}
		sort.Strings(wantKeys)
		scan := func(limit int, want []string) bool {
			var got []string
			n := st.Scan([]byte(start), limit, func(k, v []byte) {
				got = append(got, string(k))
				if model[string(k)] != string(v) {
					got = append(got, "wrong value") // force failure
				}
			})
			if n != len(got) || len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		// A full scan agrees with the sorted model contents, and a bounded
		// one with its first limit keys.
		limit := int(scanLimit) % (len(wantKeys) + 1)
		return scan(len(model)+1, wantKeys) && scan(limit, wantKeys[:limit])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGetFencedByKeyRange checks Get against a brute-force reference
// for keys below, at the ends of, inside and above every run and the
// memtable, after out-of-order puts, overwrites and flushes: the key
// range fences may skip a source only when it cannot hold the key.
func TestGetFencedByKeyRange(t *testing.T) {
	st := Open(5)
	st.FlushThreshold = 7
	model := map[string]string{}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	rng := sim.NewRNG(11)
	check := func(step int) {
		var probes []int
		// Even slots hold keys; every odd neighbour is absent.
		ends := func(lo, hi []byte) {
			var a, b int
			fmt.Sscanf(string(lo), "k%d", &a)
			fmt.Sscanf(string(hi), "k%d", &b)
			probes = append(probes, a-1, a, a+1, (a+b)/2, b-1, b, b+1)
		}
		for _, r := range st.runs {
			ends(r.keys[0], r.keys[len(r.keys)-1])
		}
		if first := st.mem.head.next[0]; first != nil {
			ends(first.key, st.mem.max)
		}
		probes = append(probes, -1, 0, 2000, 2001)
		for _, i := range probes {
			k := key(i)
			got, ok := st.Get(k)
			want, wok := model[string(k)]
			if ok != wok || string(got) != want {
				t.Fatalf("step %d: Get(%s) = %q,%v, want %q,%v", step, k, got, ok, want, wok)
			}
		}
	}
	for step := 0; step < 400; step++ {
		k := key(2 * int(rng.Uint64()%1000))
		v := fmt.Sprintf("v%d", step)
		st.Put(k, []byte(v))
		model[string(k)] = v
		if step%53 == 0 {
			st.Flush()
		}
		check(step)
	}
	if len(st.runs) < 3 {
		t.Fatalf("only %d runs; the fences were not exercised across runs", len(st.runs))
	}
}

func TestSkiplistScanFromNil(t *testing.T) {
	st := Open(3)
	st.Put([]byte("b"), []byte("2"))
	st.Put([]byte("a"), []byte("1"))
	var got []string
	st.mem.scan(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("scan(nil) = %v", got)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.GetMean != 2400 {
		t.Errorf("GET mean = %d cycles, want 2400 (1.2 µs)", c.GetMean)
	}
	if c.ScanMean != 1_160_000 {
		t.Errorf("SCAN mean = %d cycles, want 1160000 (580 µs)", c.ScanMean)
	}
	rng := sim.NewRNG(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := c.SampleGet(rng)
		if g < 2100 || g > 2700 {
			t.Fatalf("GET sample %d outside ±10%%", g)
		}
		sum += float64(g)
	}
	mean := sum / n
	if mean < 2350 || mean > 2450 {
		t.Errorf("GET sample mean %g", mean)
	}
	if s := c.SampleScan(rng); s < 1_000_000 || s > 1_250_000 {
		t.Errorf("SCAN sample %d", s)
	}
	// Zero jitter is deterministic.
	c.GetJit = 0
	if c.SampleGet(rng) != c.GetMean {
		t.Errorf("zero-jitter sample not exact")
	}
}

func TestValuesAreCopied(t *testing.T) {
	st := Open(1)
	k := []byte("k")
	v := []byte("live")
	st.Put(k, v)
	v[0] = 'X'
	k[0] = 'X'
	if got, ok := st.Get([]byte("k")); !ok || !bytes.Equal(got, []byte("live")) {
		t.Errorf("store aliases caller buffers: %q %v", got, ok)
	}
}

func TestPutNilValueIsNotDeletion(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), nil)
	if v, ok := st.Get([]byte("k")); !ok || v == nil || len(v) != 0 {
		t.Errorf("nil-value put behaved like delete: %v %v", v, ok)
	}
}

// TestScanAllocFree checks a Scan over the memtable and several runs
// allocates nothing: cursors live on the stack and the memtable is walked
// in place.
func TestScanAllocFree(t *testing.T) {
	st := Open(9)
	st.FlushThreshold = 500
	for i := 0; i < 2400; i++ {
		st.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("v"))
	}
	if len(st.runs) < 4 || st.mem.size == 0 {
		t.Fatalf("store has %d runs and %d memtable entries; want ≥ 4 and > 0", len(st.runs), st.mem.size)
	}
	seen := 0
	fn := func(_, _ []byte) { seen++ }
	start := []byte("key01000")
	allocs := testing.AllocsPerRun(100, func() {
		if n := st.Scan(start, 100, fn); n != 100 {
			t.Fatalf("Scan emitted %d keys, want 100", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("Scan allocates %.1f objects per call, want 0", allocs)
	}
}
