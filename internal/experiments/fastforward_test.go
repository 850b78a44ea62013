package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/runcache"
)

// TestFastForwardParity extends the fingerprint contract to the engine
// switch: every Tier-1 experiment's rows must be byte-identical with
// basic-block fast-forward on (decoded fast engine, block-granular
// fetch, warm checkpoints) and off (the interpreted per-op reference
// path), serial or parallel. The run cache is dropped between
// configurations so each one genuinely re-simulates.
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
	defer runcache.ResetAll()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for i, cf := range configs {
				e := &Env{Workers: cf.workers, Engine: cf.engine, Check: suiteCheck}
				runcache.ResetAll()
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

// TestCheckpointParity pins the warm-restore path directly: a
// runReceiverWarm call must (a) build and then reuse a checkpoint —
// engagement, not a silent fallback to the cold path — and (b) return a
// Result deep-equal to runReceiver's on the same schedule.
func TestCheckpointParity(t *testing.T) {
	const uops = 40000
	const period = 10000
	mk := func() isa.Stream { return suite.workloadStream("matmul", 7, uops) }
	setup := func(c *cpu.Core, port *cpu.PrivatePort) {
		c.PeriodicInterrupts(period, period, func() cpu.Interrupt {
			port.MarkRemoteWrite(UPIDAddr)
			return cpu.Interrupt{Vector: 1, Handler: TinyHandler()}
		})
	}
	for _, strat := range []cpu.Strategy{cpu.Flush, cpu.Drain, cpu.Tracked} {
		// The warm build itself must succeed — a nil here means the run
		// would silently fall back to cold simulation.
		if ws := suite.buildWarmState(receiverCfg(strat), mk, period-1, uops); ws == nil {
			t.Fatalf("strategy %v: warm-state build declined", strat)
		} else if ws.ck.Committed() == 0 || ws.ck.Cycle() != period-1 {
			t.Fatalf("strategy %v: warm state malformed: committed=%d cycle=%d",
				strat, ws.ck.Committed(), ws.ck.Cycle())
		}

		cold := suite.runReceiver(receiverCfg(strat), mk(), uops, uops*400, setup)

		runcache.ResetAll()
		warm := suite.runReceiverWarm(receiverCfg(strat), "matmul/7", mk, uops, uops*400, period-1, setup)
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("strategy %v: warm-restored run differs from cold run:\n  cold: %+v\n  warm: %+v",
				strat, cold, warm)
		}
		s := checkpointCache.Stats()
		if s.Misses != 1 {
			t.Errorf("strategy %v: checkpoint was not built (misses = %d, want 1)", strat, s.Misses)
		}

		again := suite.runReceiverWarm(receiverCfg(strat), "matmul/7", mk, uops, uops*400, period-1, setup)
		if !reflect.DeepEqual(cold, again) {
			t.Errorf("strategy %v: second warm run differs from cold run", strat)
		}
		if s := checkpointCache.Stats(); s.Hits < 1 {
			t.Errorf("strategy %v: checkpoint restore did not engage (hits = %d)", strat, s.Hits)
		}
	}
	runcache.ResetAll()
}
