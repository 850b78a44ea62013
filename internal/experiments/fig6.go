package experiments

import (
	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// Fig6Row is one point of Figure 6: the CPU utilization of a dedicated
// timer core as a function of how many application cores it must preempt
// and which OS interface supplies the time.
type Fig6Row struct {
	Method    string // "setitimer", "nanosleep", "rdtsc-spin", "xui-kbtimer"
	PeriodUs  float64
	AppCores  int
	TimerUtil float64 // fraction of the timer core consumed
	TicksLate uint64  // ticks whose sends overran the period
}

// Fig6Methods lists the timer-source methods compared.
var Fig6Methods = []string{"setitimer", "nanosleep", "rdtsc-spin", "xui-kbtimer"}

// Fig6 runs each (method, period, nCores) point as a small Tier-2
// simulation: the timer core obtains each tick via the OS interface (or a
// busy rdtsc spin), then sends one UIPI per application core, each send
// occupying the timer core for the senduipi cost. xUI removes the timer
// core entirely (each core has its own KB_Timer), so its utilization is
// identically zero.
func (e *Env) Fig6(periodsUs []float64, appCores []int, horizon sim.Time) []Fig6Row {
	type job struct {
		method string
		pUs    float64
		n      int
	}
	var jobs []job
	for _, pUs := range periodsUs {
		for _, n := range appCores {
			for _, method := range Fig6Methods {
				jobs = append(jobs, job{method, pUs, n})
			}
		}
	}
	return runGrid(e, "fig6", jobs, func(_ int, j job) Fig6Row {
		return e.fig6Point(j.method, j.pUs, j.n, horizon)
	})
}

func (e *Env) fig6Point(method string, periodUs float64, nApp int, horizon sim.Time) Fig6Row {
	row := Fig6Row{Method: method, PeriodUs: periodUs, AppCores: nApp}
	if method == "xui-kbtimer" {
		return row // no timer core at all
	}
	period := sim.FromMicros(periodUs)
	s := sim.New(11)
	m, err := core.NewMachine(s, nApp+1, core.UIPI)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	k := kernel.New(m)
	timerCore := nApp

	// One receiver thread per application core.
	idx := make([]int, nApp)
	for i := 0; i < nApp; i++ {
		th := k.NewThread()
		k.RegisterHandler(th, func(sim.Time, uintr.Vector, core.Mechanism) {})
		k.ScheduleOn(th, i)
		id, err := k.RegisterSender(th, 1)
		if err != nil {
			panic(err)
		}
		idx[i] = id
	}

	// sendAll issues the per-core UIPIs back to back; each occupies the
	// timer core for the senduipi cost.
	ts := &tickSender{s: s, m: m, k: k, timerCore: timerCore, idx: idx}
	sendAll := ts.sendAll

	switch method {
	case "setitimer":
		// Each expiry delivers a signal to the timer core, whose handler
		// then notifies every app core.
		if _, err := k.Setitimer(timerCore, period, func(now sim.Time) {
			sendAll(now+period, func(sim.Time) {})
		}); err != nil {
			panic(err)
		}
	case "nanosleep":
		var tick func(now sim.Time)
		tick = func(now sim.Time) {
			sendAll(now+period, func(end sim.Time) {
				next := period
				// Sleep until the next boundary (skip if we overran).
				if end-now < period {
					next = period - (end - now)
				} else {
					next = 1
				}
				k.Nanosleep(timerCore, next, tick)
			})
		}
		k.Nanosleep(timerCore, period, tick)
	case "rdtsc-spin":
		var tick func(now sim.Time)
		tick = func(now sim.Time) {
			sendAll(now+period, func(end sim.Time) {
				next := now + period
				if next <= end {
					next = end + 1
				}
				s.Schedule(next, tick)
			})
		}
		s.Schedule(period, tick)
	}
	s.RunUntil(horizon)
	e.snapshotMachine(m)

	acct := m.Cores[timerCore].Account
	busy := acct.Get("os-timer") + acct.Get(core.CatSend) + acct.Get("signal")
	row.TimerUtil = float64(busy) / float64(horizon)
	if row.TimerUtil > 1 {
		row.TimerUtil = 1
	}
	if method == "rdtsc-spin" {
		// The spinning core is always fully consumed; report the share
		// actually spent sending (its schedulable capacity is zero either
		// way, which is the paper's point).
		row.TimerUtil = float64(acct.Get(core.CatSend)) / float64(horizon)
		if row.TimerUtil > 1 {
			row.TimerUtil = 1
		}
	}
	row.TicksLate = ts.ticksLate
	return row
}

// SpinLoopOverhead is the timer core's per-send bookkeeping between
// senduipi instructions when spinning on rdtsc: read the counter, compare
// deadlines, index the target table.
const SpinLoopOverhead = 70

// Fig6SpinCapacity returns the maximum number of application cores one
// spinning timer core can serve at the given period — the paper's
// "22 application cores at a 5 µs preemption interval".
func Fig6SpinCapacity(periodUs float64) int {
	period := float64(sim.FromMicros(periodUs))
	return int(period / float64(core.SenduipiCost+SpinLoopOverhead))
}

// tickSender issues each timer tick's UIPIs, one per app core, back to
// back from the timer core; each send occupies it for the senduipi cost.
type tickSender struct {
	s         *sim.Simulator
	m         *core.Machine
	k         *kernel.Kernel
	timerCore int
	idx       []int // UITT index per app core
	ticksLate uint64
}

// tickChain is one tick in flight: the next app core to notify, the
// deadline the tick must meet and the continuation once all are sent.
// Ticks can overlap when sends overrun the period, so each has its own.
type tickChain struct {
	ts       *tickSender
	i        int
	deadline sim.Time
	done     func(now sim.Time)
	next     sim.Handler // c.send, bound once per tick
}

func (ts *tickSender) sendAll(deadline sim.Time, done func(now sim.Time)) {
	c := &tickChain{ts: ts, deadline: deadline, done: done}
	c.next = c.send
	c.send(ts.s.Now())
}

func (c *tickChain) send(now sim.Time) {
	ts := c.ts
	if c.i >= len(ts.idx) {
		if now > c.deadline {
			ts.ticksLate++
		}
		c.done(now)
		return
	}
	if err := ts.m.SendUIPI(ts.timerCore, ts.k.UITT(), ts.idx[c.i]); err != nil {
		panic(err)
	}
	c.i++
	ts.s.After(sim.Time(core.SenduipiCost), c.next)
}
