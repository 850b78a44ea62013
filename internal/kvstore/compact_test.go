package kvstore

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeleteBasics(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), []byte("v"))
	st.Delete([]byte("k"))
	if _, ok := st.Get([]byte("k")); ok {
		t.Errorf("deleted key found")
	}
	// Re-insert after delete.
	st.Put([]byte("k"), []byte("v2"))
	if v, ok := st.Get([]byte("k")); !ok || string(v) != "v2" {
		t.Errorf("re-inserted key = %q,%v", v, ok)
	}
	// Deleting a missing key is harmless.
	st.Delete([]byte("nope"))
	if _, ok := st.Get([]byte("nope")); ok {
		t.Errorf("phantom key")
	}
}

func TestTombstoneShadowsAcrossRuns(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), []byte("old"))
	st.Flush()
	st.Delete([]byte("k"))
	st.Flush() // tombstone now in a newer run than the value
	if _, ok := st.Get([]byte("k")); ok {
		t.Errorf("tombstone in newer run did not shadow older value")
	}
	n := st.Scan([]byte("a"), 10, func(k, v []byte) {
		t.Errorf("scan emitted deleted key %q", k)
	})
	if n != 0 {
		t.Errorf("scan returned %d", n)
	}
}

func TestPutNilValueIsNotDeletion(t *testing.T) {
	st := Open(1)
	st.Put([]byte("k"), nil)
	if v, ok := st.Get([]byte("k")); !ok || v == nil || len(v) != 0 {
		t.Errorf("nil-value put behaved like delete: %v %v", v, ok)
	}
}

func TestCompactMergesAndDropsTombstones(t *testing.T) {
	st := Open(1)
	st.FlushThreshold = 4
	for i := 0; i < 40; i++ {
		st.Put([]byte(fmt.Sprintf("key%02d", i)), []byte{byte(i)})
	}
	for i := 0; i < 40; i += 2 {
		st.Delete([]byte(fmt.Sprintf("key%02d", i)))
	}
	if st.Runs() < 2 {
		t.Fatalf("expected multiple runs, got %d", st.Runs())
	}
	st.Compact()
	if st.Runs() != 1 {
		t.Fatalf("compact left %d runs", st.Runs())
	}
	if st.MemSize() != 0 {
		t.Fatalf("compact left a live memtable")
	}
	// Every odd key survives, every even key is gone — and the compacted
	// run holds no tombstones at all.
	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("key%02d", i))
		_, ok := st.Get(key)
		if i%2 == 0 && ok {
			t.Errorf("key%02d survived compaction despite delete", i)
		}
		if i%2 == 1 && !ok {
			t.Errorf("key%02d lost by compaction", i)
		}
	}
	for _, v := range st.runs[0].vals {
		if v == nil {
			t.Fatalf("tombstone survived compaction")
		}
	}
}

func TestCompactSingleRunDropsTombstones(t *testing.T) {
	st := Open(1)
	st.Put([]byte("a"), []byte("1"))
	st.Delete([]byte("b")) // tombstone for a key that never existed
	st.Compact()
	if st.Runs() != 1 {
		t.Fatalf("runs = %d", st.Runs())
	}
	if len(st.runs[0].keys) != 1 {
		t.Errorf("compacted run holds %d keys, want 1", len(st.runs[0].keys))
	}
}

func TestCompactEmptyStore(t *testing.T) {
	st := Open(1)
	st.Compact() // must not panic
	if st.Runs() != 0 {
		t.Errorf("runs = %d", st.Runs())
	}
}

func TestScanTombstonesDontCrowdWindow(t *testing.T) {
	st := Open(1)
	for i := 0; i < 30; i++ {
		st.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{1})
	}
	// Delete the first 20 — a scan asking for 5 must still find 5 live.
	for i := 0; i < 20; i++ {
		st.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	st.Flush()
	got := 0
	st.Scan([]byte("k00"), 5, func(k, v []byte) { got++ })
	if got != 5 {
		t.Errorf("scan found %d live keys, want 5", got)
	}
}

// Property: under random put/delete/compact sequences, the store agrees
// with a map, before and after compaction.
func TestDeleteCompactProperty(t *testing.T) {
	type op struct {
		Kind uint8 // 0..5 put, 6..7 delete, 8 flush, 9 compact
		K    uint8
		V    uint8
	}
	f := func(ops []op) bool {
		st := Open(3)
		st.FlushThreshold = 6
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("k%03d", o.K%64)
			switch {
			case o.Kind%10 <= 5:
				v := fmt.Sprintf("v%d", o.V)
				st.Put([]byte(k), []byte(v))
				model[k] = v
			case o.Kind%10 <= 7:
				st.Delete([]byte(k))
				delete(model, k)
			case o.Kind%10 == 8:
				st.Flush()
			default:
				st.Compact()
			}
		}
		check := func() bool {
			for k, want := range model {
				got, ok := st.Get([]byte(k))
				if !ok || string(got) != want {
					return false
				}
			}
			var wantKeys []string
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			var gotKeys []string
			st.Scan(nil, len(model)+8, func(k, v []byte) {
				gotKeys = append(gotKeys, string(k))
			})
			if len(gotKeys) != len(wantKeys) {
				return false
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					return false
				}
			}
			return true
		}
		if !check() {
			return false
		}
		st.Compact()
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestScanAllocFree checks a Scan over the memtable, several runs and
// their tombstones allocates nothing: cursors live on the stack and the
// memtable is walked in place.
func TestScanAllocFree(t *testing.T) {
	st := Open(9)
	st.FlushThreshold = 500
	for i := 0; i < 2400; i++ {
		st.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("v"))
		if i%7 == 0 {
			st.Delete([]byte(fmt.Sprintf("key%05d", i/2)))
		}
	}
	if st.Runs() < 4 || st.MemSize() == 0 {
		t.Fatalf("store has %d runs and %d memtable entries; want ≥ 4 and > 0", st.Runs(), st.MemSize())
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
