package experiments

import (
	"testing"

	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/sim"
)

// TestFig6TickChainAllocFree pins fig6's timer-core send loop at zero
// allocations per UIPI once warm: tick chains come back from the free
// list, and the per-tick handler and continuation are bound once. Sixteen
// sends take longer than the 2 µs interval timer's period, so ticks
// overrun and two chains are in flight at once, exercising the free list
// beyond one entry.
func TestFig6TickChainAllocFree(t *testing.T) {
	const nApp = 16
	s := sim.New(11)
	m, err := core.NewMachine(s, nApp+1, core.UIPI)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(m)
	ts := newTickSender(m, k, nApp)
	period := sim.FromMicros(2)
	ts.done = func(sim.Time, sim.Time) {}
	if _, err := k.Setitimer(ts.timerCore, period, func(now sim.Time) {
		ts.sendAll(now + period)
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Millisecond) // warm-up: event slabs, chains, delivery state

	sends := func() uint64 { return m.Cores[ts.timerCore].Account.Get(core.CatSend) }
	before := sends()
	allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 20*sim.Microsecond) })
	if sends() == before {
		t.Fatal("no UIPIs sent while measuring")
	}
	if allocs != 0 {
		t.Errorf("fig6 tick chain allocates %.1f objects per 20 µs, want 0", allocs)
	}
	if ts.ticksLate == 0 {
		t.Error("no tick overran its period; the overlapping-chain case went unexercised")
	}
}
