package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"xui/internal/cpu"
	"xui/internal/mem"
	"xui/internal/trace"
)

// TestBaselineStrategyInvariance pins the premise behind the baseline
// cache key: an interrupt-free run never consults the delivery strategy
// (or safepoint mode), so flush, drain and tracked cores must produce
// identical Results on the same stream. If this ever breaks, baselineKey
// must start including the strategy again.
func TestBaselineStrategyInvariance(t *testing.T) {
	const uops = 30000
	for _, workload := range []string{"linpack", "matmul"} {
		cfgs := []cpu.Config{
			receiverCfg(cpu.Flush),
			receiverCfg(cpu.Drain),
			receiverCfg(cpu.Tracked),
		}
		sp := receiverCfg(cpu.Tracked)
		sp.SafepointMode = true
		cfgs = append(cfgs, sp)

		var want cpu.Result
		for i, cfg := range cfgs {
			port := &cpu.PrivatePort{H: mem.NewHierarchy(mem.Config{}), SharedCost: mem.LatCrossCore}
			core := cpu.New(cfg, trace.ByName(workload, 1), port)
			got := core.Run(uops, uops*400)
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: interrupt-free run depends on strategy (config %d):\n flush: %+v\n other: %+v",
					workload, i, want, got)
			}
		}
	}
}

// TestRunCacheParity is the determinism contract for the whole redundancy
// layer: experiment rows must be byte-identical with the run cache, tapes
// and core pool on or off, serial or parallel. The cached configurations
// also revisit warm entries (the same grid runs twice with caching on),
// so single-flight hits are compared against true recomputation.
func TestRunCacheParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Tier-1 grid experiment four times")
	}
	cases := []struct {
		name string
		run  func(e *Env) any
	}{
		{"fig4", func(e *Env) any { return e.Fig4(40000) }},
		{"fig5", func(e *Env) any { return e.Fig5([]float64{5}, 40000) }},
		{"table2", func(e *Env) any { return e.Table2() }},
		{"worstcase", func(e *Env) any { return e.WorstCase([]int{5, 10}) }},
		{"s35linearity", func(e *Env) any { return e.S35Linearity([]int{5, 10}) }},
		{"safepoint-density", func(e *Env) any { return e.SafepointDensity([]int{25, 100}, 40000) }},
		{"poll-density", func(e *Env) any { return e.PollDensity([]int{25}, 40000) }},
	}
	configs := []struct {
		name    string
		noCache bool
		workers int
	}{
		{"cache/j1", false, 1},
		{"cache/j8", false, 8},
		{"nocache/j1", true, 1},
		{"nocache/j8", true, 8},
	}
	defer ResetCaches()
	ResetCaches()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, cf := range configs {
				e := &Env{Workers: cf.workers, NoCache: cf.noCache, Check: suiteCheck}
				got, err := json.Marshal(tc.run(e))
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Errorf("rows differ under %s:\n %s: %s\n %s: %s",
						cf.name, configs[0].name, ref, cf.name, got)
				}
			}
		})
	}
	// The cached configurations must actually have exercised the cache.
	stats := CacheStats()
	var hits, misses uint64
	for _, s := range stats.Caches {
		hits += s.Hits
		misses += s.Misses
	}
	if misses == 0 {
		t.Error("run cache recorded no misses; cached configs did not go through it")
	}
	if hits == 0 {
		t.Error("run cache recorded no hits; warm re-runs did not reuse entries")
	}
	if stats.Tapes.Replays == 0 {
		t.Error("tapes recorded no replays")
	}
}
