package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/sim"
)

// TestSweepParity checks every grid experiment produces byte-identical
// rows at one worker and at eight: the determinism contract the parallel
// sweep engine promises (results land by job index; every point builds its
// own simulator and RNG). Parameters are scaled down — each case runs the
// full grid twice. Run with -race this is also the concurrency check for
// the sweep-converted experiments.
func TestSweepParity(t *testing.T) {
	if testing.Short() {
		t.Skip("double-runs every grid experiment")
	}
	horizon := 2 * sim.Millisecond
	cases := []struct {
		name string
		run  func(e *Env) any
	}{
		{"fig4", func(e *Env) any { return e.Fig4(40000) }},
		{"fig5", func(e *Env) any { return e.Fig5([]float64{5}, 40000) }},
		{"fig6", func(e *Env) any { return e.Fig6([]float64{20}, []int{1, 4}, horizon) }},
		{"fig7", func(e *Env) any { return e.Fig7([]float64{100_000}, horizon) }},
		{"fig8", func(e *Env) any { return e.Fig8([]int{1}, []float64{40}, horizon) }},
		{"fig9", func(e *Env) any { return e.Fig9([]float64{0, 30}, 100) }},
		{"table2", func(e *Env) any { return e.Table2() }},
		{"worstcase", func(e *Env) any { return e.WorstCase([]int{5, 10}) }},
		{"s35chase", func(e *Env) any { return e.S35PointerChase([]int{8, 64}) }},
		{"s35linearity", func(e *Env) any { return e.S35Linearity([]int{5, 10}) }},
		{"multiworker", func(e *Env) any { return e.MultiWorker([]int{1, 2}, 200_000, horizon) }},
		{"safepoint-density", func(e *Env) any { return e.SafepointDensity([]int{25, 100}, 40000) }},
		{"poll-density", func(e *Env) any { return e.PollDensity([]int{25}, 40000) }},
		{"cluistui", func(e *Env) any { return e.CluiStuiCriticalSection(5, horizon) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := json.Marshal(tc.run(&Env{Workers: 1, Check: suiteCheck}))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := json.Marshal(tc.run(&Env{Workers: 8, Check: suiteCheck}))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("rows differ between -j 1 and -j 8:\n  -j 1: %s\n  -j 8: %s", serial, parallel)
			}
		})
	}
}
