package check_test

import (
	"testing"

	"xui/internal/check"
	"xui/internal/cpu"
	"xui/internal/experiments"
)

// TestLostInterruptDetection proves the lost-interrupt invariant actually
// fires: corrupt a record so the core claims a loss despite TrackedReinject
// being enabled — the checker must name the hazard.
func TestLostInterruptDetection(t *testing.T) {
	col := check.NewCollector()
	cfg := cpu.DefaultConfig()
	cfg.Strategy = cpu.Tracked
	cfg.TrackedReinject = true
	cfg.Ucode = experiments.Ucode()
	c, _ := (&experiments.Env{}).NewReceiverConfig(cfg, experiments.SlowBranchStream(200))
	cc := check.WrapCore(col, c, "detect")
	c.ScheduleInterrupt(100, cpu.Interrupt{Vector: 1, SkipNotification: true, Handler: experiments.TinyHandler(), Tag: "x"})
	c.Run(400, 10_000_000)
	recs := c.Records()
	if len(recs) == 0 {
		t.Fatal("no interrupt records")
	}
	recs[0].Lost = true // simulate the model silently dropping it
	cc.FinishCore()
	rep := col.Report()
	if rep.OK() {
		t.Fatal("checker failed to detect an injected lost interrupt")
	}
	found := false
	for _, inv := range rep.Invariants() {
		if inv == "lost-interrupt" {
			found = true
		}
	}
	if !found {
		t.Errorf("detected invariants %v, want lost-interrupt", rep.Invariants())
	}
}
