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
// layer: experiment rows must be byte-identical with the run memo, tapes
// and core pool on or off, serial or parallel. Each configuration runs
// on a fresh Env, whose memo starts empty, except cache/j1/warm, which
// re-runs the cache/j1 Env: its memo's hits are compared against true
// recomputation.
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
		// At 40,000 uops matmul's baseline ends after 12,013 cycles and
		// base64's after 9,479, so these quanta's first preemptions land
		// before both ends (2 µs), between them (5 µs) and after both
		// (10 µs): the cached path answers the late ones from the baseline.
		{"fig5-quanta", func(e *Env) any { return e.Fig5([]float64{2, 5, 10}, 40000) }},
		{"table2", func(e *Env) any { return e.Table2() }},
		{"worstcase", func(e *Env) any { return e.WorstCase([]int{5, 10}) }},
		{"s35linearity", func(e *Env) any { return e.S35Linearity([]int{5, 10}) }},
		{"safepoint-density", func(e *Env) any { return e.SafepointDensity([]int{25, 100}, 40000) }},
		{"poll-density", func(e *Env) any { return e.PollDensity([]int{25}, 40000) }},
		// Several spacings, so the j8 config derives poll streams into
		// concurrently lent buffers.
		{"poll-density-sweep", func(e *Env) any { return e.PollDensity([]int{4, 10, 25}, 40000) }},
	}
	configs := []struct {
		name    string
		noCache bool
		workers int
		warm    bool // re-run the first config's Env
	}{
		{"cache/j1", false, 1, false},
		{"cache/j1/warm", false, 1, true},
		{"cache/j8", false, 8, false},
		{"nocache/j1", true, 1, false},
		{"nocache/j8", true, 8, false},
	}
	before := CacheStats()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			var first *Env
			for _, cf := range configs {
				e := first
				if !cf.warm {
					e = &Env{Workers: cf.workers, NoCache: cf.noCache, Check: suiteCheck}
				}
				if first == nil {
					first = e
				}
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
	// The cached configurations must actually have exercised the memo.
	var hits, misses uint64
	for _, s := range memoSince(t, before) {
		hits += s.Hits
		misses += s.Misses
	}
	if misses == 0 {
		t.Error("run memo recorded no misses; cached configs did not go through it")
	}
	if hits == 0 {
		t.Error("run memo recorded no hits; warm re-runs did not reuse entries")
	}
	if CacheStats().Tapes.Replays == before.Tapes.Replays {
		t.Error("tapes recorded no replays")
	}
}

// TestJobTapesBaseOnly checks a job's tape set holds generator
// recordings only: as the last grid of quick fig5 and of quick
// ablations finishes, each set counts one tape per base workload (fig5
// two, ablations matmul alone), however many safepoint and poll
// spacings ran over them.
func TestJobTapesBaseOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fig5 and ablations grids")
	}
	for _, tc := range []struct {
		job, lastSweep string
		bases          int
	}{
		{"fig5", "fig5", len(Fig5Workloads)},
		{"ablations", "poll-density", 1},
	} {
		e := &Env{Workers: 2}
		var st trace.TapeStats
		e.Progress = func(sweep string, done, total int) {
			if sweep == tc.lastSweep && done == total {
				st = e.tapes.Load().Stats()
			}
		}
		if _, err := e.RunJob(tc.job, true); err != nil {
			t.Fatal(err)
		}
		if st.Tapes != tc.bases {
			t.Errorf("%s: set holds %d tapes (%d ops), want its %d base recordings", tc.job, st.Tapes, st.Ops, tc.bases)
		}
	}
}
