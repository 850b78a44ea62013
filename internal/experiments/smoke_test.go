package experiments

import (
	"testing"

	"xui/internal/sim"
)

func TestSmokeFig6(t *testing.T) {
	rows := suite.Fig6([]float64{5, 50}, []int{1, 8, 22}, 20*sim.Millisecond)
	for _, r := range rows {
		t.Logf("fig6 %-12s period=%gus cores=%d util=%.3f late=%d", r.Method, r.PeriodUs, r.AppCores, r.TimerUtil, r.TicksLate)
	}
	if got := Fig6SpinCapacity(5); got < 20 || got > 30 {
		t.Errorf("spin capacity at 5us = %d, paper says ≈22", got)
	}
}

func TestSmokeFig7(t *testing.T) {
	rows := suite.Fig7([]float64{50_000, 150_000, 220_000}, 100*sim.Millisecond)
	for _, r := range rows {
		t.Logf("fig7 %-14s rps=%.0f ach=%.0f getp99=%.1fus getp999=%.1fus scanp99=%.0fus n=%d",
			r.Config, r.OfferedRPS, r.AchievedRPS, r.GetP99Us, r.GetP999Us, r.ScanP99Us, r.Completed)
	}
}

func TestSmokeFig8(t *testing.T) {
	rows := suite.Fig8([]int{1, 4}, []float64{20, 40}, 10*sim.Millisecond)
	for _, r := range rows {
		t.Logf("fig8 %-5s nics=%d load=%.0f%% net=%.1f poll=%.1f notify=%.1f free=%.1f tput=%.0f p95=%.2fus drop=%d",
			r.Mode, r.NICs, r.LoadPct, r.NetPct, r.PollPct, r.NotifyPct, r.FreePct, r.ThroughputPPS, r.P95Us, r.Dropped)
	}
}

func TestSmokeFig9(t *testing.T) {
	rows := suite.Fig9([]float64{0, 40}, 400)
	for _, r := range rows {
		t.Logf("fig9 %-5s %-13s noise=%.0f%% free=%.1f%% notify=%.3fus req=%.2fus",
			r.Class, r.Method, r.NoisePct, r.FreePct, r.NotifyUs, r.RequestUs)
	}
}

func TestSmokeWorstCaseAndSection2(t *testing.T) {
	for _, r := range suite.WorstCase([]int{10, 50}) {
		t.Logf("worstcase chain=%d tracked=%d flush=%d", r.ChainLen, r.TrackedCycles, r.FlushCycles)
	}
	s2 := suite.Section2()
	t.Logf("section2: %+v", s2)
}

func TestSmokeTable2Fig2(t *testing.T) {
	t.Logf("table2: %+v (paper %+v)", suite.Table2(), PaperTable2())
	t.Logf("fig2: %+v (paper %+v)", suite.Fig2(), PaperFig2())
}

func TestSmokeFig5(t *testing.T) {
	rows := suite.Fig5([]float64{5}, 150000)
	for _, r := range rows {
		t.Logf("fig5 %-8s %-13s q=%gus overhead=%.2f%%", r.Workload, r.Method, r.QuantumUs, r.OverheadPct)
	}
}
