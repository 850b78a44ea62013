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
// preemption on, at one allocation per request, GET or SCAN: the UThread.
// The completion handler is bound once per point, the key is formatted
// into a reused buffer, and kvstore.Scan keeps its merge cursors on the
// stack. Each request is measured alone.
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
	q.rec.Record("GET", 1<<40)
	scans := func() uint64 {
		if h := q.rec.Class("SCAN"); h != nil {
			return h.Count()
		}
		return 0
	}
	var ms runtime.MemStats
	before := scans()
	for i := 0; i < 300; i++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		request()
		runtime.ReadMemStats(&ms)
		if n := ms.Mallocs - mallocs; n != 1 {
			t.Errorf("request %d: issue→complete allocates %d objects, want 1", i, n)
		}
	}
	if rt.Completed != 600 {
		t.Fatalf("completed %d of 600 requests", rt.Completed)
	}
	if scans() == before {
		t.Fatal("no SCAN among the measured requests")
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
