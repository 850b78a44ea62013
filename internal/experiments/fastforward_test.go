package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/cpu"
)

// TestFastForwardParity extends the fingerprint contract to the engine
// switch: every Tier-1 experiment's rows must be byte-identical with
// basic-block fast-forward on (decoded fast engine, block-granular
// fetch) and off (the interpreted per-op reference path), serial or
// parallel. Each configuration runs on a fresh Env, whose run memo
// starts empty, so each one genuinely re-simulates.
func TestFastForwardParity(t *testing.T) {
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
		{"s35chase", func(e *Env) any { return e.S35PointerChase([]int{8, 64}) }},
		{"s35linearity", func(e *Env) any { return e.S35Linearity([]int{5, 10}) }},
		{"safepoint-density", func(e *Env) any { return e.SafepointDensity([]int{25, 100}, 40000) }},
		{"poll-density", func(e *Env) any { return e.PollDensity([]int{25}, 40000) }},
	}
	configs := []struct {
		name    string
		engine  cpu.Engine
		workers int
	}{
		{"ff/j1", cpu.EngineFast, 1},
		{"ff/j8", cpu.EngineFast, 8},
		{"noff/j1", cpu.EngineInterpreted, 1},
		{"noff/j8", cpu.EngineInterpreted, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for i, cf := range configs {
				e := &Env{Workers: cf.workers, Engine: cf.engine, Check: suiteCheck}
				got, err := json.Marshal(tc.run(e))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("rows differ between %s and %s:\n  %s: %s\n  %s: %s",
						configs[0].name, cf.name, configs[0].name, want, cf.name, got)
				}
			}
		})
	}
}
