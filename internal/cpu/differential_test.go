package cpu

import (
	"reflect"
	"testing"
	"testing/quick"

	"xui/internal/isa"
)

// Differential tests for the decoded fast engine: the interpreted per-op
// path is the reference model, and for arbitrary tapes, strategies and
// arrival schedules the fast engine must produce identical results —
// cycle counts, retire order, and every interrupt timestamp, including
// mispredict-squashed re-injections.

// mixedTape is mixedStream's ops as a decodable Tape (the fast engine
// only engages on TapeStreams).
func mixedTape(seed uint64, n int) *isa.Tape {
	ops := make([]isa.MicroOp, 0, n)
	s := mixedStream(seed, n)
	for i := 0; i < n; i++ {
		op, _ := s.Next()
		ops = append(ops, op)
	}
	return isa.NewTape("mixed", ops)
}

// commitLog captures the retire order: one (pos, cycle) pair per
// committed program micro-op.
type commitRec struct {
	pos, cycle uint64
}

// diffRun runs tape under the given engine with nIntr interrupts placed
// by the gap schedule, returning the Result and the commit log.
func diffRun(tape *isa.Tape, engine Engine, strat Strategy, safepoint bool, fidelity uint64,
	gaps []uint16, nProg uint64) (Result, []commitRec) {
	cfg := DefaultConfig()
	cfg.Strategy = strat
	cfg.SafepointMode = safepoint
	cfg.Ucode = testUcode()
	cfg.Engine = engine
	cfg.FidelityWindow = fidelity
	port := newPort()
	c := New(cfg, tape.Stream(), port)
	var log []commitRec
	c.OnProgramCommit = func(pos, cycle uint64) {
		log = append(log, commitRec{pos, cycle})
	}
	at := uint64(500)
	for i, g := range gaps {
		if i >= 10 {
			break
		}
		at += 300 + uint64(g)%2500
		skip := g%2 == 0
		if !skip {
			port.MarkRemoteWrite(testUPIDAddr)
		}
		c.ScheduleInterrupt(at, Interrupt{
			Vector:           uint8(i % 64),
			SkipNotification: skip,
			Handler:          smallHandler(),
		})
	}
	return c.Run(nProg, 50_000_000), log
}

// TestEngineDifferentialProperty: for random hostile tapes under every
// strategy, with and without safepoint gating, at several fidelity
// windows, the fast engine's results are deep-equal to the interpreted
// engine's — same Result (so same interrupt timestamps, including
// re-injection after mispredict squashes) and same retire order.
func TestEngineDifferentialProperty(t *testing.T) {
	f := func(seed uint64, stratPick, fidPick uint8, safepoint bool, gaps []uint16) bool {
		strategies := []Strategy{Flush, Drain, Tracked, LegacyGem5}
		strat := strategies[int(stratPick)%len(strategies)]
		fidelities := []uint64{1, 64, 256, 4096}
		fid := fidelities[int(fidPick)%len(fidelities)]
		const nProg = 20000
		tape := mixedTape(seed, nProg+4096)

		ri, li := diffRun(tape, EngineInterpreted, strat, safepoint, fid, gaps, nProg)
		rf, lf := diffRun(tape, EngineFast, strat, safepoint, fid, gaps, nProg)
		if !reflect.DeepEqual(ri, rf) {
			t.Logf("seed=%d strat=%v sp=%v fid=%d: results differ\n  interp: %+v\n  fast:   %+v",
				seed, strat, safepoint, fid, ri, rf)
			return false
		}
		if !reflect.DeepEqual(li, lf) {
			t.Logf("seed=%d strat=%v sp=%v fid=%d: retire order differs (%d vs %d commits)",
				seed, strat, safepoint, fid, len(li), len(lf))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
