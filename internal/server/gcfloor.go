package server

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// heapFloor is the smallest heap goal the daemon's collector aims at.
// Between jobs the daemon's live heap is a few MiB, so at GOGC=100 the
// goal sits at the runtime's 4 MiB minimum and the cache-hit path pays
// for a GC cycle every few hundred requests. A job whose live heap is at
// least heapFloor/2 is not affected: its goal is already above the floor.
const heapFloor = 20 << 20

// minHeapGoal is the runtime's smallest heap goal at GOGC=100. It scales
// with GOGC: at percent p the goal is never below minHeapGoal×p/100.
const minHeapGoal = 4 << 20

// floorPercent is the GOGC percent that puts the heap goal at
// max(floor, its GOGC=100 value). The runtime's goal is
// max(live + (live+roots)×GOGC/100, minHeapGoal×GOGC/100), where roots
// are the stack and global bytes the last cycle scanned. The first term
// reaches the floor at (floor−live)×100/(live+roots); the second passes
// it above floor×100/minHeapGoal, so the percent is capped there. It
// never goes below 100.
func floorPercent(live, roots, floor uint64) int {
	pct := floor * 100 / minHeapGoal
	if live >= floor {
		pct = 0
	} else if live+roots > 0 {
		pct = min(pct, (floor-live)*100/(live+roots))
	}
	return max(100, int(pct))
}

// floorEnabled reports whether the floor may tune the collector: an
// operator who sets GOGC has chosen, and the floor stays off.
func floorEnabled(gogc string) bool { return gogc == "" }

// installFloor installs the floor once per process, at the first New.
var installFloor = sync.OnceFunc(func() {
	if floorEnabled(os.Getenv("GOGC")) {
		armFloor()
	}
})

// floorSentinel is garbage as soon as it is allocated; its finalizer
// runs once after each GC cycle. The pointer keeps it out of the tiny
// allocator, whose objects may never be finalized.
type floorSentinel struct{ _ *int }

// armFloor sets GOGC from the cycle that just ended and arms the next
// cycle's sentinel. It runs on the runtime's finalizer goroutine.
func armFloor() {
	runtime.SetFinalizer(new(floorSentinel), func(*floorSentinel) {
		s := []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/scan/stack:bytes"},
			{Name: "/gc/scan/globals:bytes"},
		}
		metrics.Read(s)
		debug.SetGCPercent(floorPercent(s[0].Value.Uint64(), s[1].Value.Uint64()+s[2].Value.Uint64(), heapFloor))
		armFloor()
	})
}

// gcStats is /api/v1/stats' view of the collector.
type gcStats struct {
	// Percent is the GOGC in force: the floor's last setting while the
	// floor is on, else the environment's (−1 for off).
	Percent   int64  `json:"percent"`
	Cycles    uint64 `json:"cycles"`
	LiveBytes uint64 `json:"liveBytes"` // marked by the last cycle
}

func readGCStats() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/gogc:percent"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return gcStats{Percent: int64(s[0].Value.Uint64()), Cycles: s[1].Value.Uint64(), LiveBytes: s[2].Value.Uint64()}
}
