package experiments

import (
	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/sim"
	"xui/internal/stats"
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
		row, _ := e.fig6Point(j.method, j.pUs, j.n, horizon)
		return row
	})
}

// fig6Point runs one point and also returns its tick sender, whose
// machine holds the end-of-run state (nil for xui-kbtimer).
func (e *Env) fig6Point(method string, periodUs float64, nApp int, horizon sim.Time) (Fig6Row, *tickSender) {
	row := Fig6Row{Method: method, PeriodUs: periodUs, AppCores: nApp}
	if method == "xui-kbtimer" {
		return row, nil // no timer core at all
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
	ts := newTickSender(m, k, nApp)
	ts.until = horizon

	// Each method's tick handler and its continuation (ts.done) are built
	// once per point, not per tick.
	switch method {
	case "setitimer":
		// Each expiry delivers a signal to the timer core, whose handler
		// then notifies every app core.
		ts.done = func(sim.Time, sim.Time) {}
		ts.itimer, err = k.Setitimer(timerCore, period, func(now sim.Time) {
			ts.sendAll(now + period)
		})
		if err != nil {
			panic(err)
		}
		ts.between = 1 // the timer's next expiry
	case "nanosleep":
		tick := func(now sim.Time) { ts.sendAll(now + period) }
		ts.done = func(start, end sim.Time) {
			next := period
			// Sleep until the next boundary (skip if we overran).
			if end-start < period {
				next = period - (end - start)
			} else {
				next = 1
			}
			k.Nanosleep(timerCore, next, tick)
		}
		k.Nanosleep(timerCore, period, tick)
	case "rdtsc-spin":
		tick := func(now sim.Time) { ts.sendAll(now + period) }
		ts.done = func(start, end sim.Time) {
			next := start + period
			if next <= end {
				next = end + 1
			}
			s.Schedule(next, tick)
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
	return row, ts
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
	// done runs once a tick's last UIPI is sent, with the tick's start
	// and end; set once per run.
	done func(start, end sim.Time)
	// free holds finished chains for reuse. Chains overlap only when
	// sends overrun the period, so it stays a handful long.
	free []*tickChain

	// Period skip (see skipAhead). until is the RunUntil horizon, 0 for
	// none (no skip); between is how many events the queue holds at a
	// tick start besides the tick's own work: setitimer's next expiry,
	// none for the sleeping and spinning methods. itimer is setitimer's
	// timer. old and mid are the last two consecutive tick starts found
	// quiescent, and seen how many of them are valid (0–2).
	until    sim.Time
	between  int
	itimer   *kernel.IntervalTimer
	old, mid *tickSnap
	seen     int
}

// tickSnap is what a tick changes, copied at a tick start: the clock,
// the late-tick and expiry counts, every core's accumulators and the
// machine's meters.
type tickSnap struct {
	at                  sim.Time
	ticksLate, expiries uint64
	cores               []coreSnap
	meters              core.Meters
}

// coreSnap is one core's share of a tickSnap.
type coreSnap struct {
	acct      stats.CycleAccount
	delivered [core.ForwardedIntr + 1]uint64
	lat       stats.Histogram
}

// newTickSender registers one receiver thread per application core
// 0..nApp-1 and returns a sender on core nApp, the timer core. The
// caller sets done before the first tick.
func newTickSender(m *core.Machine, k *kernel.Kernel, nApp int) *tickSender {
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
	return &tickSender{s: m.Sim, m: m, k: k, timerCore: nApp, idx: idx}
}

// tickChain is one tick in flight: the next app core to notify, when the
// tick started and the deadline it must meet.
type tickChain struct {
	ts              *tickSender
	i               int
	start, deadline sim.Time
	next            sim.Handler // c.send, bound once per chain
}

// sendAll starts a tick that must finish sending by deadline, once the
// period skip has jumped whole ticks ahead where it can.
func (ts *tickSender) sendAll(deadline sim.Time) {
	if ts.until != 0 {
		deadline += ts.skipAhead()
	}
	ts.start(deadline)
}

// start sends a tick's UIPIs.
func (ts *tickSender) start(deadline sim.Time) {
	var c *tickChain
	if n := len(ts.free); n > 0 {
		c = ts.free[n-1]
		ts.free = ts.free[:n-1]
	} else {
		c = &tickChain{ts: ts}
		c.next = c.send
	}
	c.i, c.start, c.deadline = 0, ts.s.Now(), deadline
	c.send(c.start)
}

func (c *tickChain) send(now sim.Time) {
	ts := c.ts
	if c.i >= len(ts.idx) {
		if now > c.deadline {
			ts.ticksLate++
		}
		// Free the chain first: done may start the next tick at once.
		ts.free = append(ts.free, c)
		ts.done(c.start, now)
		return
	}
	if err := ts.m.SendUIPI(ts.timerCore, ts.k.UITT(), ts.idx[c.i]); err != nil {
		panic(err)
	}
	c.i++
	ts.s.After(sim.Time(core.SenduipiCost), c.next)
}

// skipAhead is fig6's period skip. The model draws no random numbers, so
// a tick that starts with the machine quiescent and nothing but the
// method's own next event pending starts from the same state as every
// such tick before it, shifted in time, and does the same work. Once
// two consecutive such ticks have changed every accumulator and meter by
// the same amount over the same tick length d, skipAhead adds k more of
// that change at once and jumps the clock and the pending events k·d
// later, so this tick starts k ticks on; it returns the jump, 0 for
// none. k leaves at least one whole tick before the horizon, so the
// run's last ticks, cut by the horizon, are simulated event by event. A
// traced or checked machine is never quiescent, so those runs take the
// full loop; a metered one is, and its meters repeat with the rest.
func (ts *tickSender) skipAhead() sim.Time {
	if ts.s.Pending() != ts.between || !ts.m.Quiescent() {
		ts.seen = 0
		return 0
	}
	now := ts.s.Now()
	if ts.seen == 2 && ts.repeats(now) {
		d := now - ts.mid.at
		if left := uint64((ts.until - min(ts.until, now)) / d); left >= 2 {
			k := left - 1 // every whole tick before the horizon but the last
			ts.repeat(k)
			shift := sim.Time(k) * d
			ts.s.Jump(shift)
			ts.seen = 0
			return shift
		}
	}
	if ts.old == nil {
		ts.old, ts.mid = newTickSnap(len(ts.m.Cores)), newTickSnap(len(ts.m.Cores))
	}
	ts.old, ts.mid = ts.mid, ts.old
	ts.take(ts.mid, now)
	ts.seen = min(ts.seen+1, 2)
	return 0
}

func newTickSnap(cores int) *tickSnap { return &tickSnap{cores: make([]coreSnap, cores)} }

// expiries is setitimer's expiry count, 0 for the other methods.
func (ts *tickSender) expiries() uint64 {
	if ts.itimer == nil {
		return 0
	}
	return ts.itimer.Expiries
}

// take copies the current tick start into sn.
func (ts *tickSender) take(sn *tickSnap, now sim.Time) {
	sn.at, sn.ticksLate, sn.expiries = now, ts.ticksLate, ts.expiries()
	for i, v := range ts.m.Cores {
		c := &sn.cores[i]
		c.acct.CopyFrom(v.Account)
		c.delivered = v.Delivered
		c.lat.CopyFrom(v.DelivLat)
	}
	ts.m.CopyMeters(&sn.meters)
}

// repeats reports whether the tick ending now changed everything by as
// much, over as long, as the tick before it.
func (ts *tickSender) repeats(now sim.Time) bool {
	o, m := ts.old, ts.mid
	if now-m.at != m.at-o.at || ts.ticksLate-m.ticksLate != m.ticksLate-o.ticksLate ||
		ts.expiries()-m.expiries != m.expiries-o.expiries {
		return false
	}
	for i, v := range ts.m.Cores {
		oc, mc := &o.cores[i], &m.cores[i]
		for j, n := range v.Delivered {
			if n-mc.delivered[j] != mc.delivered[j]-oc.delivered[j] {
				return false
			}
		}
		if !v.Account.SameStep(&oc.acct, &mc.acct) || !v.DelivLat.SameStep(&oc.lat, &mc.lat) {
			return false
		}
	}
	return ts.m.MetersSameStep(&o.meters, &m.meters)
}

// repeat applies the last tick's change k more times.
func (ts *tickSender) repeat(k uint64) {
	m := ts.mid
	ts.ticksLate += k * (ts.ticksLate - m.ticksLate)
	if ts.itimer != nil {
		ts.itimer.Expiries += k * (ts.itimer.Expiries - m.expiries)
	}
	for i, v := range ts.m.Cores {
		mc := &m.cores[i]
		for j, n := range v.Delivered {
			v.Delivered[j] += k * (n - mc.delivered[j])
		}
		v.Account.Repeat(&mc.acct, k)
		v.DelivLat.Repeat(&mc.lat, k)
	}
	ts.m.RepeatMeters(&m.meters, k)
}
