package experiments

import (
	"reflect"
	"regexp"
	"testing"

	"xui/internal/obs"
)

// hostKeys matches the metric names that legitimately differ between two
// runs of the same spec:
//   - the sweep engine's wall-clock and per-worker bookkeeping, including
//     the workers gauge, which is the -j setting itself;
//   - the per-core Tier-1 "cpu<tid>/" namespace, whose tids are handed
//     out in completion order;
//   - the Tier-2 end-of-run gauges (vcore<N>/utilization and
//     delivered_total/<mech>). Every grid point's machine sets them, and
//     a gauge keeps the last write, so at -j 8 they hold whichever point
//     finished last.
var hostKeys = regexp.MustCompile(`^sweep/.*/(wall_ms|eta_ms|job_us|workers|worker\d+/jobs)$|^cpu\d+/|^vcore\d+/(utilization|delivered_total/)`)

// observedSnapshot runs each job (quick) from cold caches with a
// metrics-only context installed, as the daemon does, and returns the
// registry snapshot without the host-dependent keys.
func observedSnapshot(t *testing.T, jobs []string) map[string]any {
	t.Helper()
	ctx := &obs.Context{Metrics: obs.NewRegistry()}
	SetObservability(ctx)
	defer SetObservability(nil)
	for _, name := range jobs {
		ResetCaches()
		if _, err := RunJob(name, true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	snap := ctx.Metrics.Snapshot()
	out := map[string]any{}
	for k, v := range snap.Counters {
		if !hostKeys.MatchString(k) {
			out["counter "+k] = v
		}
	}
	for k, v := range snap.Gauges {
		if !hostKeys.MatchString(k) {
			out["gauge "+k] = v
		}
	}
	for k, v := range snap.Histograms {
		if !hostKeys.MatchString(k) {
			out["histogram "+k] = v
		}
	}
	return out
}

// TestObservedMetricsParity checks that the metrics snapshot, not just the
// rows, is independent of sweep width and engine shard width: handles
// resolved at attach time must sum the same values whether one goroutine
// or many record into them. Under -race it is also the data-race check
// for concurrent handle adds from sweep and shard workers.
func TestObservedMetricsParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed Tier-2 quick grids four times")
	}
	defer SetWorkers(0)
	defer SetShards(0)

	t.Run("workers", func(t *testing.T) {
		jobs := []string{"fig6", "fig9", "multiworker", "duet"}
		SetWorkers(1)
		serial := observedSnapshot(t, jobs)
		SetWorkers(8)
		parallel := observedSnapshot(t, jobs)
		diffSnapshots(t, "-j 1", serial, "-j 8", parallel)
	})
	t.Run("shards", func(t *testing.T) {
		SetWorkers(1)
		SetShards(1)
		narrow := observedSnapshot(t, []string{"scale"})
		SetShards(4)
		wide := observedSnapshot(t, []string{"scale"})
		diffSnapshots(t, "-shards 1", narrow, "-shards 4", wide)
	})
}

// diffSnapshots reports every key whose presence or value differs. Both
// families must have recorded the event-kernel and per-core delivery
// counters, or parity would hold vacuously.
func diffSnapshots(t *testing.T, an string, a map[string]any, bn string, b map[string]any) {
	t.Helper()
	for _, k := range []string{"counter sim/events_fired", "counter vcore0/upid_acks"} {
		if _, ok := a[k]; !ok {
			t.Fatalf("%s snapshot lacks %s: nothing was observed", an, k)
		}
	}
	for k, av := range a {
		bv, ok := b[k]
		switch {
		case !ok:
			t.Errorf("%s only: %s = %v", an, k, av)
		case !reflect.DeepEqual(av, bv):
			t.Errorf("%s: %s %v, %s %v", k, an, av, bn, bv)
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			t.Errorf("%s only: %s = %v", bn, k, bv)
		}
	}
}
