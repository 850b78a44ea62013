// Package loadgen provides the request generators and latency recorders
// used by the end-to-end experiments: an open-loop Poisson generator (the
// Caladan-style load generator of §5.3) and a per-class latency recorder.
package loadgen

import (
	"fmt"

	"xui/internal/sim"
	"xui/internal/stats"
)

// OpenLoop issues requests with exponential inter-arrival gaps (a Poisson
// process), independent of completion — overload makes queues grow, which
// is the point.
type OpenLoop struct {
	sim     *sim.Simulator
	rng     *sim.RNG
	meanGap float64 // mean inter-arrival gap in (fractional) cycles
	carry   float64 // fractional cycles owed from previous arrivals
	submit  func(now sim.Time, id uint64)
	ev      *sim.Event
	fire    sim.Handler // g.issue, bound once
	stopped bool

	Issued uint64
}

// StartOpenLoop begins generating. rate is in requests per second of
// simulated time. The offered rate is honoured exactly in expectation:
// the mean gap is kept in fractional cycles and the fraction truncated
// from each integer-cycle arrival is carried into the next draw, so no
// load is lost to rounding even when the mean gap is small or below one
// cycle (sub-cycle gaps coalesce into same-cycle arrivals).
func StartOpenLoop(s *sim.Simulator, seed uint64, rate float64, submit func(now sim.Time, id uint64)) (*OpenLoop, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: non-positive rate %g", rate)
	}
	g := &OpenLoop{
		sim:     s,
		rng:     sim.NewRNG(seed),
		meanGap: float64(sim.CyclesPerSecond) / rate,
		submit:  submit,
	}
	g.fire = g.issue
	g.arm()
	return g, nil
}

//xui:noalloc
func (g *OpenLoop) arm() {
	exact := g.rng.Exp(g.meanGap) + g.carry
	gap := sim.Time(exact) // truncate; the remainder is carried forward
	g.carry = exact - float64(gap)
	g.ev = g.sim.After(gap, g.fire)
}

// issue submits the next request and draws the following gap.
func (g *OpenLoop) issue(now sim.Time) {
	if g.stopped {
		return
	}
	g.Issued++
	g.submit(now, g.Issued)
	g.arm()
}

// Stop halts generation.
func (g *OpenLoop) Stop() {
	g.stopped = true
	if g.ev != nil {
		g.sim.Cancel(g.ev)
	}
}

// Recorder accumulates end-to-end latencies per request class.
type Recorder struct {
	byClass map[string]*stats.Histogram
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byClass: make(map[string]*stats.Histogram)}
}

// Record notes one completed request.
func (r *Recorder) Record(class string, latencyCycles uint64) {
	h, ok := r.byClass[class]
	if !ok {
		h = stats.NewHistogram()
		r.byClass[class] = h
	}
	h.Record(latencyCycles)
}

// Class returns the histogram for a class (nil if nothing recorded).
func (r *Recorder) Class(class string) *stats.Histogram { return r.byClass[class] }
