package experiments

import (
	"fmt"
	"os"
	"testing"

	"xui/internal/check"
	"xui/internal/sim"
)

// suiteCheck is the invariant collector of the whole experiments suite:
// every Env a test runs on reports into it (tests that need a collector
// of their own say so), and TestMain fails the suite if an invariant
// fired anywhere — including inside the parity and end-to-end sweeps.
var suiteCheck = check.NewCollector()

// suite is the default Env of the test suite: the zero Env, checked.
var suite = &Env{Check: suiteCheck}

// TestMain keeps invariant checking on for the entire experiments suite.
func TestMain(m *testing.M) {
	code := m.Run()
	rep := suiteCheck.Report()
	if code == 0 && !rep.OK() {
		fmt.Fprintf(os.Stderr, "FAIL: invariant violations during experiments suite:\n%s\n", rep)
		code = 1
	}
	os.Exit(code)
}

// TestCheckedSweepClean runs representative cells of each paper figure with
// its own collector and asserts zero violations plus visible activity under
// the degradation counters.
func TestCheckedSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full checked sweep is not -short")
	}
	col := check.NewCollector()
	e := &Env{Check: col}
	e.Fig4(40_000)
	e.Fig6([]float64{5, 100}, []int{1, 22}, 20*sim.Millisecond)
	e.Fig7([]float64{50_000, 200_000}, 100*sim.Millisecond)
	e.Fig8([]int{1, 4}, []float64{40}, 10*sim.Millisecond)
	e.Fig9([]float64{0, 40}, 500)

	rep := col.Report()
	if !rep.OK() {
		t.Fatalf("checked sweep found violations:\n%s", rep)
	}
	if rep.Checks == 0 {
		t.Fatal("no invariant evaluations ran — checkers not attached")
	}
	for _, name := range []string{"tier2/delivered", "tier1/tier1_completed"} {
		if rep.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0; have %v", name, rep.Counters)
		}
	}
}
