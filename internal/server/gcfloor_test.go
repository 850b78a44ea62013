package server

import (
	"os"
	"runtime"
	"strconv"
	"testing"
)

// TestFloorPercent: the floor lifts a small heap's goal to heapFloor
// and leaves a heap of heapFloor/2 or more at GOGC's default. The goal
// is checked against the runtime's rule, minimum heap included: it is
// max(heapFloor, the GOGC=100 goal), less at most 1% rounding.
func TestFloorPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name        string
		live, roots uint64
		want        int
	}{
		{"no cycle yet", 0, 0, 500},
		{"roots only", 0, 1 * mib, 500},
		{"1 MiB live", 1 * mib, 0, 500},
		{"1 MiB live, 1 MiB roots", 1 * mib, 1 * mib, 500},
		{"3 MiB live", 3 * mib, 0, 500},
		{"4 MiB live, 1 MiB roots", 4 * mib, 1 * mib, 320},
		{"floor/2 live", heapFloor / 2, 0, 100},
		{"floor/2 live with roots", heapFloor / 2, 1 * mib, 100},
		{"floor live", heapFloor, 0, 100},
		{"2×floor live", 2 * heapFloor, 0, 100},
	} {
		got := floorPercent(c.live, c.roots, heapFloor)
		if got != c.want {
			t.Errorf("%s: floorPercent(%d, %d) = %d, want %d", c.name, c.live, c.roots, got, c.want)
		}
		goal := func(pct uint64) uint64 {
			return max(c.live+(c.live+c.roots)*pct/100, minHeapGoal*pct/100)
		}
		want := max(goal(100), heapFloor)
		if g := goal(uint64(got)); g > want || g+(c.live+c.roots)/100 < want {
			t.Errorf("%s: goal %d at GOGC=%d, want max(%d, floor %d)", c.name, g, got, goal(100), heapFloor)
		}
	}
}

// TestFloorEnabled: a GOGC in the environment is the operator's choice,
// and the floor stays off.
func TestFloorEnabled(t *testing.T) {
	for gogc, want := range map[string]bool{"": true, "100": false, "400": false, "off": false} {
		if got := floorEnabled(gogc); got != want {
			t.Errorf("floorEnabled(%q) = %v, want %v", gogc, got, want)
		}
	}
}

// TestFloorInstall: any number of servers in one process share one
// floor hook. With GOGC set in the environment the hook stays off and
// the environment's percent holds; with it unset, once the hook runs
// the GOGC in force is the floor's.
func TestFloorInstall(t *testing.T) {
	newTestServer(t, Config{Version: "test-gc-a"})
	newTestServer(t, Config{Version: "test-gc-b"})
	if gogc := os.Getenv("GOGC"); !floorEnabled(gogc) {
		want := int64(-1)
		if gogc != "off" {
			n, err := strconv.Atoi(gogc)
			if err != nil {
				t.Skipf("GOGC=%q is not a percent", gogc)
			}
			want = int64(n)
		}
		runtime.GC()
		runtime.GC()
		if got := readGCStats().Percent; got != want {
			t.Fatalf("GOGC=%s in the environment, yet %d is in force after a cycle", gogc, got)
		}
		return
	}
	// The hook runs on the finalizer goroutine after a cycle; it has run
	// once GOGC moves off its default, which a heap under half the floor
	// guarantees.
	for i := 0; i < 100; i++ {
		runtime.GC()
		st := readGCStats()
		if st.LiveBytes >= heapFloor/2 {
			t.Skipf("live heap %d B is not below half the floor", st.LiveBytes)
		}
		if st.Percent > 100 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("GOGC is %d after 100 cycles, want the floor's > 100", readGCStats().Percent)
}
