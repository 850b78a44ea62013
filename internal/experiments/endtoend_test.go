package experiments

import (
	"testing"

	"xui/internal/sim"
)

// TestFig6Behaviour asserts the scaling claims behind Figure 6.
func TestFig6Behaviour(t *testing.T) {
	rows := suite.Fig6([]float64{5, 100}, []int{1, 22}, 20*sim.Millisecond)
	get := func(m string, p float64, n int) Fig6Row {
		for _, r := range rows {
			if r.Method == m && r.PeriodUs == p && r.AppCores == n {
				return r
			}
		}
		t.Fatalf("missing %s/%g/%d", m, p, n)
		return Fig6Row{}
	}
	// OS timers consume an increasingly large share as periods shrink.
	if a, b := get("setitimer", 100, 1).TimerUtil, get("setitimer", 5, 1).TimerUtil; a >= b {
		t.Errorf("setitimer util not increasing with rate: %g vs %g", a, b)
	}
	// Sender costs scale with receiver count.
	if a, b := get("setitimer", 5, 1).TimerUtil, get("setitimer", 5, 22).TimerUtil; a >= b {
		t.Errorf("setitimer util not increasing with cores: %g vs %g", a, b)
	}
	// At 5 µs with 22 cores the setitimer core saturates.
	if u := get("setitimer", 5, 22).TimerUtil; u < 0.95 {
		t.Errorf("setitimer 5µs/22 cores util %.2f, expected saturation", u)
	}
	// xUI eliminates the timer core entirely.
	for _, p := range []float64{5, 100} {
		for _, n := range []int{1, 22} {
			if u := get("xui-kbtimer", p, n).TimerUtil; u != 0 {
				t.Errorf("xUI timer util %.3f, want 0", u)
			}
		}
	}
	// The rdtsc spin supports ≈22 cores at 5 µs (paper's number).
	if c := Fig6SpinCapacity(5); c < 20 || c > 24 {
		t.Errorf("spin capacity %d, paper says 22", c)
	}
}

// TestFig7Behaviour asserts the preemption claims behind Figure 7.
func TestFig7Behaviour(t *testing.T) {
	loads := []float64{50_000, 150_000, 205_000, 215_000, 225_000, 230_000, 240_000}
	rows := suite.Fig7(loads, 150*sim.Millisecond)
	get := func(cfg string, rps float64) Fig7Row {
		for _, r := range rows {
			if r.Config == cfg && r.OfferedRPS == rps {
				return r
			}
		}
		t.Fatalf("missing %s/%g", cfg, rps)
		return Fig7Row{}
	}
	// Without preemption, GET tail latency is hundreds of microseconds
	// even at low load (head-of-line blocking behind 580 µs SCANs).
	if p99 := get("no-preempt", 50_000).GetP99Us; p99 < 200 {
		t.Errorf("no-preempt GET p99 at low load = %.0f µs, expected HOL blocking ≫200 µs", p99)
	}
	// With preemption, GET p99 at low load collapses to ≈ quantum scale.
	for _, cfg := range []string{"uipi-sw-timer", "xui-kbtimer"} {
		if p99 := get(cfg, 50_000).GetP99Us; p99 > 50 {
			t.Errorf("%s GET p99 at low load = %.0f µs, expected tens of µs", cfg, p99)
		}
	}
	// xUI sustains measurably more load than UIPI under a p99 SLO
	// (paper: ≈10 % more GET throughput; we see ≈5-8 %).
	cap := Fig7Capacity(rows, 300)
	if cap["xui-kbtimer"] < 1.04*cap["uipi-sw-timer"] {
		t.Errorf("xUI capacity (%.0f) not ≳4%% above UIPI (%.0f)", cap["xui-kbtimer"], cap["uipi-sw-timer"])
	}
	// At every load, xUI's GET p99 ≤ UIPI's (lower per-event cost).
	for _, l := range loads[2:] {
		u, x := get("uipi-sw-timer", l), get("xui-kbtimer", l)
		if x.GetP99Us > u.GetP99Us*1.1 {
			t.Errorf("at %.0f rps xUI GET p99 (%.0f) worse than UIPI (%.0f)", l, x.GetP99Us, u.GetP99Us)
		}
	}
	// SCANs still complete (preemption does not starve them).
	if get("xui-kbtimer", 150_000).ScanP99Us == 0 {
		t.Errorf("no SCANs completed")
	}
}

// TestFig8Behaviour asserts the l3fwd efficiency claims.
func TestFig8Behaviour(t *testing.T) {
	rows := suite.Fig8([]int{1, 8}, []float64{40}, 20*sim.Millisecond)
	get := func(mode string, nics int) Fig8Row {
		for _, r := range rows {
			if r.Mode == mode && r.NICs == nics {
				return r
			}
		}
		t.Fatalf("missing %s/%d", mode, nics)
		return Fig8Row{}
	}
	poll1, xui1 := get("poll", 1), get("xui", 1)
	// Polling burns the whole core at any load.
	if poll1.FreePct > 2 {
		t.Errorf("polling left %.1f%% free", poll1.FreePct)
	}
	// xUI frees a large fraction at 40% load with one queue (paper: 45%).
	if xui1.FreePct < 35 || xui1.FreePct > 65 {
		t.Errorf("xUI free cycles at 40%% load = %.1f%%, paper ≈45%%", xui1.FreePct)
	}
	// Throughput parity (paper: within 0.08%).
	if poll1.ThroughputPPS > 0 {
		diff := (poll1.ThroughputPPS - xui1.ThroughputPPS) / poll1.ThroughputPPS
		if diff > 0.01 || diff < -0.01 {
			t.Errorf("throughput gap %.3f%%, paper 0.08%%", 100*diff)
		}
	}
	// Latency: close at 1 NIC; degraded but bounded at 8 NICs (paper:
	// +2% / +65%).
	if xui1.P95Us > poll1.P95Us*1.5 {
		t.Errorf("1-NIC p95: xui %.2fµs vs poll %.2fµs", xui1.P95Us, poll1.P95Us)
	}
	poll8, xui8 := get("poll", 8), get("xui", 8)
	if xui8.P95Us > poll8.P95Us*3 {
		t.Errorf("8-NIC p95 blowup: xui %.2fµs vs poll %.2fµs", xui8.P95Us, poll8.P95Us)
	}
	if xui8.Dropped > 0 {
		t.Errorf("xUI dropped %d packets at 40%% load", xui8.Dropped)
	}
}

// TestFig9Behaviour asserts the DSA completion-notification claims.
func TestFig9Behaviour(t *testing.T) {
	rows := suite.Fig9([]float64{0, 40}, 500)
	get := func(class, method string, noise float64) Fig9Row {
		for _, r := range rows {
			if r.Class == class && r.Method == method && r.NoisePct == noise {
				return r
			}
		}
		t.Fatalf("missing %s/%s/%g", class, method, noise)
		return Fig9Row{}
	}
	for _, class := range []string{"2us", "20us"} {
		for _, noise := range []float64{0, 40} {
			spin := get(class, "busy-spin", noise)
			xui := get(class, "xui", noise)
			// Busy spinning frees nothing; xUI frees most of the core.
			if spin.FreePct > 2 {
				t.Errorf("%s/%g: spin free %.1f%%", class, noise, spin.FreePct)
			}
			if xui.FreePct < 60 {
				t.Errorf("%s/%g: xUI free %.1f%%, paper ≈75%% for 2µs", class, noise, xui.FreePct)
			}
			// xUI within 0.2 µs of spinning (paper's bound).
			if d := xui.NotifyUs - spin.NotifyUs; d > 0.2 {
				t.Errorf("%s/%g: xUI notify %.3fµs vs spin %.3fµs (gap %.3f > 0.2)",
					class, noise, xui.NotifyUs, spin.NotifyUs, d)
			}
		}
	}
	// Periodic polling for 20 µs requests degrades sharply as noise rises.
	pp0 := get("20us", "periodic-poll", 0)
	pp40 := get("20us", "periodic-poll", 40)
	if pp40.NotifyUs < pp0.NotifyUs*1.3 {
		t.Errorf("periodic poll 20µs: notify %.2f → %.2f µs, expected sharp increase with noise",
			pp0.NotifyUs, pp40.NotifyUs)
	}
	// ...but not for 2 µs requests (timer already at the OS floor).
	sp0 := get("2us", "periodic-poll", 0)
	sp40 := get("2us", "periodic-poll", 40)
	if sp40.NotifyUs > sp0.NotifyUs*1.3 {
		t.Errorf("periodic poll 2µs: notify %.2f → %.2f µs, expected flat", sp0.NotifyUs, sp40.NotifyUs)
	}
}

// TestMultiWorkerStealing asserts the work-stealing study's claims.
func TestMultiWorkerStealing(t *testing.T) {
	rows := suite.MultiWorker([]int{1, 4}, 400_000, 80*sim.Millisecond)
	get := func(n int, steal bool) MultiWorkerRow {
		for _, r := range rows {
			if r.Workers == n && r.Steal == steal {
				return r
			}
		}
		t.Fatalf("missing %d/%v", n, steal)
		return MultiWorkerRow{}
	}
	one := get(1, false)
	fourNo := get(4, false)
	fourSteal := get(4, true)
	// Without stealing, extra workers are useless (arrivals hit worker 0).
	if fourNo.AchievedRPS > one.AchievedRPS*1.02 {
		t.Errorf("no-steal 4-worker throughput %f exceeds 1-worker %f", fourNo.AchievedRPS, one.AchievedRPS)
	}
	// With stealing, the offered 400k rps is fully absorbed and tail
	// latency collapses.
	if fourSteal.AchievedRPS < 395_000 {
		t.Errorf("steal throughput %f, want ≈400k", fourSteal.AchievedRPS)
	}
	if fourSteal.GetP99Us > one.GetP99Us/5 {
		t.Errorf("stealing did not collapse tail latency: %f vs %f µs", fourSteal.GetP99Us, one.GetP99Us)
	}
	if fourSteal.Imbalance == 0 {
		t.Errorf("some worker never ran despite stealing")
	}
}
