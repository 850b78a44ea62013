package loadgen

import (
	"math"
	"testing"

	"xui/internal/sim"
)

func TestOpenLoopRate(t *testing.T) {
	s := sim.New(1)
	n := 0
	g, err := StartOpenLoop(s, 7, 1_000_000, func(sim.Time, uint64) { n++ }) // 1M rps
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.CyclesPerSecond / 100) // 10 ms
	g.Stop()
	want := 10000.0
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Errorf("issued %d, want ≈%v", n, want)
	}
	if g.Issued != uint64(n) {
		t.Errorf("Issued=%d, callbacks=%d", g.Issued, n)
	}
}

// TestOpenLoopRateAccuracy drives the generator across the Fig. 7 load grid
// plus rates whose mean gap is small or sub-cycle, and checks the measured
// rate against the requested one within 0.5 %. Without the fractional-carry
// fix, truncating the mean gap to whole cycles biases the high-rate points
// well past this bound (e.g. 3 G rps on a 2 GHz clock is off by 2–3×).
func TestOpenLoopRateAccuracy(t *testing.T) {
	rates := []float64{
		25_000, 50_000, 100_000, 150_000, 200_000, 225_000, 245_000, // Fig. 7 grid
		3_000_000,     // mean gap ≈ 667 cycles
		30_000_000,    // mean gap ≈ 67 cycles (truncation bias ≈ 0.7 %)
		3_000_000_000, // mean gap ≈ 0.67 cycles (sub-cycle, coalesces arrivals)
	}
	for _, rate := range rates {
		wantArrivals := 400_000.0
		horizon := sim.Time(wantArrivals / rate * float64(sim.CyclesPerSecond))
		s := sim.New(1)
		n := 0
		g, err := StartOpenLoop(s, 7, rate, func(sim.Time, uint64) { n++ })
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntil(horizon)
		g.Stop()
		measured := float64(n) / float64(horizon) * float64(sim.CyclesPerSecond)
		if rel := math.Abs(measured/rate - 1); rel > 0.005 {
			t.Errorf("rate %.0f rps: measured %.0f rps (%.2f%% off, want ≤0.5%%)",
				rate, measured, rel*100)
		}
	}
}

// TestOpenLoopMeanGapUnbiased replays the generator's RNG stream and checks
// that the n-th arrival lands at floor(sum of the exact fractional gaps):
// truncation never accumulates, so the carry loses less than one cycle over
// the whole run.
func TestOpenLoopMeanGapUnbiased(t *testing.T) {
	const seed, rate = 7, 30_000_000.0
	s := sim.New(1)
	var last sim.Time
	n := 0
	g, err := StartOpenLoop(s, seed, rate, func(now sim.Time, _ uint64) {
		last = now
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.CyclesPerSecond / 100)
	g.Stop()
	if n < 1000 {
		t.Fatalf("only %d arrivals", n)
	}
	// Replay the same RNG stream to compute the exact fractional sum.
	rng := sim.NewRNG(seed)
	meanGap := float64(sim.CyclesPerSecond) / rate
	exact := 0.0
	for i := 0; i < n; i++ {
		exact += rng.Exp(meanGap)
	}
	if got, want := float64(last), exact; math.Abs(got-want) >= 1 {
		t.Errorf("arrival %d at cycle %.0f, exact fractional sum %.3f (drift ≥ 1 cycle)",
			n, got, want)
	}
}

func TestOpenLoopStops(t *testing.T) {
	s := sim.New(1)
	n := 0
	g, _ := StartOpenLoop(s, 7, 1_000_000, func(sim.Time, uint64) { n++ })
	s.RunUntil(20000)
	g.Stop()
	before := n
	s.RunUntil(2_000_000)
	if n != before {
		t.Errorf("generator kept running after Stop: %d → %d", before, n)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	if _, err := StartOpenLoop(sim.New(1), 1, 0, nil); err == nil {
		t.Errorf("zero rate accepted")
	}
	if _, err := StartOpenLoop(sim.New(1), 1, -5, nil); err == nil {
		t.Errorf("negative rate accepted")
	}
}

func TestOpenLoopIsPoisson(t *testing.T) {
	// Coefficient of variation of exponential gaps ≈ 1.
	s := sim.New(1)
	var last sim.Time
	var gaps []float64
	g, _ := StartOpenLoop(s, 3, 2_000_000, func(now sim.Time, _ uint64) {
		gaps = append(gaps, float64(now-last))
		last = now
	})
	s.RunUntil(sim.CyclesPerSecond / 50)
	g.Stop()
	if len(gaps) < 1000 {
		t.Fatalf("only %d gaps", len(gaps))
	}
	var sum, sumsq float64
	for _, x := range gaps {
		sum += x
	}
	mean := sum / float64(len(gaps))
	for _, x := range gaps {
		sumsq += (x - mean) * (x - mean)
	}
	cv := math.Sqrt(sumsq/float64(len(gaps))) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("inter-arrival CV = %.2f, want ≈1 (exponential)", cv)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if r.Class("GET") != nil {
		t.Errorf("empty recorder returned a histogram")
	}
	r.Record("GET", 100)
	r.Record("GET", 200)
	r.Record("SCAN", 99999)
	if len(r.byClass) != 2 {
		t.Errorf("%d classes recorded, want 2 (GET, SCAN)", len(r.byClass))
	}
	if r.Class("GET").Count() != 2 {
		t.Errorf("GET count = %d", r.Class("GET").Count())
	}
	if r.Class("SCAN").Max() < 99000 {
		t.Errorf("SCAN max = %d", r.Class("SCAN").Max())
	}
}
