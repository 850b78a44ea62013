package experiments

import (
	"testing"

	"xui/internal/sim"
)

func TestCluiStuiCriticalSection(t *testing.T) {
	r := suite.CluiStuiCriticalSection(5, 100*sim.Millisecond)
	// Paper §4.1: protecting malloc in RocksDB with clui/stui cost 7 %
	// throughput. Five 34-cycle pairs per 1.2 µs GET is 7.1 % analytically;
	// the runtime measurement lands close.
	if r.PairCost != 34 {
		t.Errorf("clui+stui pair = %g cycles, want 34", r.PairCost)
	}
	within(t, "analytic clui/stui penalty", r.AnalyticPenalty, 7.1, 0.05)
	if r.MeasuredPenalty < 4 || r.MeasuredPenalty > 10 {
		t.Errorf("measured penalty %.1f%%, paper ≈7%%", r.MeasuredPenalty)
	}
}

func TestSafepointDensityAblation(t *testing.T) {
	rows := suite.SafepointDensity([]int{5, 400}, 120000)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	dense, sparse := rows[0], rows[1]
	// Overhead is density-insensitive (safepoints are free when idle)...
	if diff := sparse.OverheadPct - dense.OverheadPct; diff > 0.5 || diff < -0.5 {
		t.Errorf("safepoint overhead density-sensitive: %.2f%% vs %.2f%%", dense.OverheadPct, sparse.OverheadPct)
	}
	// ...but delivery delay grows with spacing.
	if sparse.MeanDelayCyc <= dense.MeanDelayCyc {
		t.Errorf("delivery delay did not grow with spacing: %.0f vs %.0f",
			dense.MeanDelayCyc, sparse.MeanDelayCyc)
	}
}

func TestPollDensityAblation(t *testing.T) {
	rows := suite.PollDensity([]int{4, 25, 100}, 120000)
	// Monotone: denser checks, larger tax — the Go-team dilemma.
	for i := 1; i < len(rows); i++ {
		if rows[i].OverheadPct >= rows[i-1].OverheadPct {
			t.Errorf("polling tax not decreasing with spacing: %+v", rows)
		}
	}
	// The every-4 tight-loop case carries a heavy double-digit tax.
	if rows[0].OverheadPct < 20 {
		t.Errorf("tight instrumentation tax only %.1f%%", rows[0].OverheadPct)
	}
}
