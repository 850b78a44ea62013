package experiments

import (
	"testing"

	"xui/internal/obs"
)

// maxQueueDepth bounds the event-queue depth any registered experiment may
// reach. internal/sim inserts into its sorted-window queue by a backward
// scan, which beats a binary heap only up to a few dozen pending events
// (DESIGN.md §7). A model that queues deeper must revisit the queue, not
// raise this bound.
const maxQueueDepth = 64

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// TestRegistryQueueDepth runs every registry entry at quick scale, each on
// a fresh Env so from a cold run memo, with the sim probe attached and checks the deepest queue any
// dispatch left behind.
func TestRegistryQueueDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry entry at quick scale")
	}
	if raceBuild {
		// The depths are a deterministic property of the models, so the
		// race detector adds nothing here but ~100 s on a 2-vCPU host.
		t.Skip("queue depth does not depend on the race detector")
	}
	kernel := map[string]bool{"fig6": true, "fig7": true, "fig8": true, "fig9": true,
		"multiworker": true, "ablations": true, "scale": true}
	for _, name := range JobNames() {
		ctx := &obs.Context{Metrics: obs.NewRegistry()}
		e := &Env{Workers: 1, Obs: ctx}
		if _, err := e.RunJob(name, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, ok := ctx.Metrics.Snapshot().Histograms["sim/queue_depth"]
		if ok != kernel[name] {
			t.Errorf("%s: recorded queue depths = %v, want %v", name, ok, kernel[name])
			continue
		}
		if !ok {
			continue
		}
		t.Logf("%-12s max depth %2d over %d dispatches", name, d.Max, d.Count)
		if d.Max > maxQueueDepth {
			t.Errorf("%s queues %d events deep, past the %d the event queue is sized for", name, d.Max, maxQueueDepth)
		}
	}
}
