package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/sim"
	"xui/internal/urt"
)

// TestFig7RequestOneAlloc pins fig7's issue→complete path, with KB_Timer
// preemption on, at one allocation per GET: the UThread. The completion
// handler is bound once per point and the key is formatted into a reused
// buffer. Each request is measured alone; SCANs are left out because
// kvstore.Scan allocates its merge cursors.
func TestFig7RequestOneAlloc(t *testing.T) {
	s := sim.New(1234)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := urt.New(m, kernel.New(m), urt.Config{Workers: 1, Preempt: urt.KBTimer, Quantum: fig7Quantum})
	if err != nil {
		t.Fatal(err)
	}
	q := newFig7Requests(rt)
	request := func() { q.issue(s.Now(), 0); s.RunUntil(s.Now() + sim.Millisecond) }
	for i := 0; i < 300; i++ {
		request() // warm-up: event slabs, run queue and histogram buckets
	}
	// A latency past every earlier one grows the GET histogram's bucket
	// array (amortized: at most 64<<5 slots ever); size it up front.
	q.rec.Record("GET", 1<<40)
	scans := func() uint64 {
		if h := q.rec.Class("SCAN"); h != nil {
			return h.Count()
		}
		return 0
	}
	var ms runtime.MemStats
	gets := 0
	for i := 0; i < 300; i++ {
		before := scans()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		request()
		runtime.ReadMemStats(&ms)
		if scans() != before {
			continue
		}
		gets++
		if n := ms.Mallocs - mallocs; n != 1 {
			t.Errorf("request %d: GET issue→complete allocates %d objects, want 1", i, n)
		}
	}
	if rt.Completed != 600 {
		t.Fatalf("completed %d of 600 requests", rt.Completed)
	}
	if gets < 250 {
		t.Fatalf("only %d of 300 measured requests were GETs", gets)
	}
}

// TestAppendUserKey checks the completion's key formatting against the
// fmt rendering the store was filled with.
func TestAppendUserKey(t *testing.T) {
	for _, i := range []int{0, 7, 19999, 12345678, 123456789, 1 << 40} {
		if got, want := string(appendUserKey(nil, i)), fmt.Sprintf("user%08d", i); got != want {
			t.Errorf("appendUserKey(%d) = %q, want %q", i, got, want)
		}
	}
	buf := []byte("stale")
	for i := 0; i < 20000; i++ {
		buf = appendUserKey(buf[:0], i)
		if want := fmt.Sprintf("user%08d", i); string(buf) != want {
			t.Fatalf("appendUserKey(%d) = %q, want %q", i, buf, want)
		}
	}
}
