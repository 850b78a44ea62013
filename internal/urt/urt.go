// Package urt is an Aspen-like user-level runtime model (§5.3): lightweight
// user threads multiplexed over pinned kernel threads (one per core), a
// per-core run queue with work stealing, and preemptive scheduling driven
// by user interrupts — either UIPIs from a dedicated timer core or xUI's
// per-core KB_Timer with tracked delivery.
package urt

import (
	"fmt"

	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/sim"
	"xui/internal/stats"
	"xui/internal/uintr"
)

// PreemptMode selects the runtime's preemption mechanism.
type PreemptMode uint8

const (
	// NoPreempt runs threads to completion (the paper's non-preemptive
	// baseline).
	NoPreempt PreemptMode = iota
	// UIPITimerCore dedicates a core that spins on rdtsc and sends a UIPI
	// to every worker each quantum ("UIPI SW Timer").
	UIPITimerCore
	// KBTimer arms each worker core's kernel-bypass timer; delivery uses
	// the tracked, delivery-only path ("xUI KB_Timer + Tracking").
	KBTimer
)

func (m PreemptMode) String() string {
	switch m {
	case NoPreempt:
		return "no-preempt"
	case UIPITimerCore:
		return "uipi-sw-timer"
	case KBTimer:
		return "xui-kbtimer"
	}
	return "preempt?"
}

// Config configures a Runtime.
type Config struct {
	Workers int
	Preempt PreemptMode
	Quantum sim.Time
	// StealEnabled turns on work stealing between worker run queues.
	StealEnabled bool
	// FirstCore offsets the runtime onto cores FirstCore..FirstCore+
	// Workers-1 (plus the next core in UIPITimerCore mode). On a sharded
	// machine the whole range must sit inside one shard — user threads are
	// pinned shard-local, so each shard runs its own Runtime instance.
	FirstCore int
}

// UThread is a user-level thread: a request with a service demand. The
// runtime charges its execution to the worker core it runs on. It is one
// heap object per request, so its fields fit 64 bytes, one size class.
type UThread struct {
	ID        uint64
	Remaining sim.Time
	// Class labels the thread for per-class latency accounting (e.g.
	// "GET"/"SCAN").
	Class string
	// Arrived is when the request entered the runtime.
	Arrived sim.Time
	// Arg is a one-word payload for OnDone (see SpawnArg), so a handler
	// bound once can still tell requests apart without a closure each.
	Arg uint64
	// OnDone is invoked at completion.
	OnDone func(now sim.Time, th *UThread)
	// Worker is the index of the worker the thread was spawned on (with
	// stealing on, another worker may run it). It lets one OnDone serve
	// every thread of a runtime.
	Worker int32

	preemptions int32
}

// Preemptions returns how many times the thread was preempted.
func (t *UThread) Preemptions() int { return int(t.preemptions) }

// Runtime is the user-level runtime spanning worker cores
// FirstCore..FirstCore+Workers-1 of the machine (plus, in UIPITimerCore
// mode, the next core as the timer). It runs entirely on those cores'
// event kernel: on a sharded machine that makes the runtime shard-local.
type Runtime struct {
	cfg  Config
	sim  *sim.Simulator
	m    *core.Machine
	kern *kernel.Kernel

	workers []*worker
	// timer-core state (UIPITimerCore mode)
	timerThread *kernel.Thread
	senderIdx   []int          // UITT indices per worker
	tickBase    sim.Time       // quantum boundary of the tick being sent
	sendFn      sim.ArgHandler // rt.sendTick, bound once
	tickFn      sim.Handler    // rt.startTick, bound once

	nextID uint64

	// Scheduled counts threads submitted; Completed counts finished.
	Scheduled, Completed uint64
}

type worker struct {
	rt     *Runtime
	coreID int
	thread *kernel.Thread
	// runq[head:] is the run queue. pop advances head; push compacts the
	// queued threads to the front before the array would have to grow,
	// so a warm queue never reallocates.
	runq []*UThread
	head int

	current    *UThread
	sliceStart sim.Time
	complEv    *sim.Event
	finishFn   sim.Handler // w.finish, bound once

	// Busy tracks utilization of the worker core.
	Busy stats.Busy
}

// New builds the runtime over machine m (which must have at least
// cfg.Workers cores, plus one more for the UIPI timer core).
func New(m *core.Machine, k *kernel.Kernel, cfg Config) (*Runtime, error) {
	need := cfg.Workers
	if cfg.Preempt == UIPITimerCore {
		need++
	}
	if cfg.FirstCore < 0 || len(m.Cores) < cfg.FirstCore+need {
		return nil, fmt.Errorf("urt: machine has %d cores, need %d starting at core %d", len(m.Cores), need, cfg.FirstCore)
	}
	if need > 0 && m.ShardOf(cfg.FirstCore) != m.ShardOf(cfg.FirstCore+need-1) {
		return nil, fmt.Errorf("urt: cores [%d,%d) span shards %d..%d; pin each runtime inside one shard",
			cfg.FirstCore, cfg.FirstCore+need, m.ShardOf(cfg.FirstCore), m.ShardOf(cfg.FirstCore+need-1))
	}
	if cfg.Preempt != NoPreempt && cfg.Quantum == 0 {
		return nil, fmt.Errorf("urt: preemption enabled with zero quantum")
	}
	rt := &Runtime{cfg: cfg, sim: m.Cores[cfg.FirstCore].Sim, m: m, kern: k}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{rt: rt, coreID: cfg.FirstCore + i}
		w.finishFn = w.finish
		w.thread = k.NewThread()
		wi := w
		k.RegisterHandler(w.thread, func(now sim.Time, _ uintr.Vector, mech core.Mechanism) {
			wi.preemptIntr(now, mech)
		})
		k.ScheduleOn(w.thread, w.coreID)
		rt.workers = append(rt.workers, w)
	}
	switch cfg.Preempt {
	case KBTimer:
		for _, w := range rt.workers {
			kbt := m.Cores[w.coreID].KBT
			kbt.Enable(1)
			if err := kbt.Set(uint64(cfg.Quantum), core.Periodic); err != nil {
				return nil, err
			}
		}
	case UIPITimerCore:
		rt.timerThread = k.NewThread()
		k.RegisterHandler(rt.timerThread, func(sim.Time, uintr.Vector, core.Mechanism) {})
		k.ScheduleOn(rt.timerThread, cfg.FirstCore+cfg.Workers)
		for _, w := range rt.workers {
			idx, err := k.RegisterSender(w.thread, 1)
			if err != nil {
				return nil, err
			}
			rt.senderIdx = append(rt.senderIdx, idx)
		}
		rt.timerTick()
	}
	return rt, nil
}

// timerTick is the dedicated timer core's loop: each quantum it sends one
// UIPI per worker, serially — each senduipi occupies the timer core for
// SenduipiCost cycles, which is what caps how many workers one timer core
// can serve (§6.1: 22 workers at a 5 µs quantum). The next tick is
// scheduled only once the last send is done, so one tick is in flight at
// a time and its state lives on the runtime.
func (rt *Runtime) timerTick() {
	rt.sendFn, rt.tickFn = rt.sendTick, rt.startTick
	rt.sim.After(rt.cfg.Quantum, rt.tickFn)
}

// startTick begins the tick whose quantum boundary is now.
func (rt *Runtime) startTick(now sim.Time) {
	rt.tickBase = now
	rt.sendTick(now, 0)
}

// sendTick sends the tick's UIPI to worker i, or schedules the next tick
// once every worker has been sent one.
func (rt *Runtime) sendTick(now sim.Time, i uint64) {
	if int(i) >= len(rt.workers) {
		// Next tick: at the next quantum boundary, or immediately if
		// sending overran the quantum.
		next := rt.tickBase + rt.cfg.Quantum
		if next <= now {
			next = now + 1
		}
		rt.sim.Schedule(next, rt.tickFn)
		return
	}
	timerCore := rt.cfg.FirstCore + rt.cfg.Workers
	if err := rt.m.SendUIPI(timerCore, rt.kern.UITT(), rt.senderIdx[i]); err != nil {
		panic(err)
	}
	rt.sim.AfterArg(sim.Time(core.SenduipiCost), rt.sendFn, i+1)
}

// Spawn submits a user thread with the given service demand to worker w's
// run queue.
func (rt *Runtime) Spawn(workerIdx int, class string, service sim.Time, onDone func(now sim.Time, th *UThread)) *UThread {
	return rt.SpawnArg(workerIdx, class, service, 0, onDone)
}

// SpawnArg is Spawn with arg carried on the thread as UThread.Arg.
func (rt *Runtime) SpawnArg(workerIdx int, class string, service sim.Time, arg uint64, onDone func(now sim.Time, th *UThread)) *UThread {
	rt.nextID++
	th := &UThread{
		ID:        rt.nextID,
		Remaining: service,
		Class:     class,
		Arrived:   rt.sim.Now(),
		Worker:    int32(workerIdx),
		Arg:       arg,
		OnDone:    onDone,
	}
	rt.Scheduled++
	w := rt.workers[workerIdx]
	w.push(th)
	w.maybeRun(rt.sim.Now())
	rt.kickIdle(rt.sim.Now())
	return th
}

// kickIdle gives idle workers a chance to steal newly queued work — the
// event-driven equivalent of Aspen's idle workers scanning sibling queues.
func (rt *Runtime) kickIdle(now sim.Time) {
	if !rt.cfg.StealEnabled {
		return
	}
	for _, w := range rt.workers {
		if w.current == nil {
			w.maybeRun(now)
		}
	}
}

// WorkerBusy returns worker i's utilization tracker.
func (rt *Runtime) WorkerBusy(i int) *stats.Busy { return &rt.workers[i].Busy }

// maybeRun starts the next thread if the worker is idle.
func (w *worker) maybeRun(now sim.Time) {
	if w.current != nil {
		return
	}
	th := w.pop()
	if th == nil && w.rt.cfg.StealEnabled {
		th = w.steal()
	}
	if th == nil {
		w.Busy.MarkIdle(uint64(now))
		return
	}
	w.Busy.MarkBusy(uint64(now))
	w.start(now, th)
}

//xui:noalloc
func (w *worker) start(now sim.Time, th *UThread) {
	w.current = th
	begin := now + core.UserContextSwitch
	w.sliceStart = begin
	w.rt.m.Cores[w.coreID].Account.Charge("ctxswitch", core.UserContextSwitch)
	w.complEv = w.rt.sim.Schedule(begin+th.Remaining, w.finishFn)
}

// queued returns the run-queue length.
func (w *worker) queued() int { return len(w.runq) - w.head }

// push appends th to the run queue.
func (w *worker) push(th *UThread) {
	if len(w.runq) == cap(w.runq) && w.head > 0 {
		n := copy(w.runq, w.runq[w.head:])
		clear(w.runq[n:])
		w.runq, w.head = w.runq[:n], 0
	}
	w.runq = append(w.runq, th)
}

// pop takes the oldest queued thread, or nil.
//
//xui:noalloc
func (w *worker) pop() *UThread {
	if w.head == len(w.runq) {
		return nil
	}
	th := w.runq[w.head]
	w.runq[w.head] = nil
	w.head++
	if w.head == len(w.runq) {
		w.runq, w.head = w.runq[:0], 0
	}
	return th
}

// steal takes the newest queued thread from the longest sibling queue.
func (w *worker) steal() *UThread {
	var victim *worker
	best := 0
	for _, o := range w.rt.workers {
		if o != w && o.queued() > best {
			victim, best = o, o.queued()
		}
	}
	if victim == nil {
		return nil
	}
	last := len(victim.runq) - 1
	th := victim.runq[last]
	victim.runq[last] = nil
	victim.runq = victim.runq[:last]
	if victim.head == last {
		victim.runq, victim.head = victim.runq[:0], 0
	}
	return th
}

//xui:noalloc
func (w *worker) finish(now sim.Time) {
	th := w.current
	w.current = nil
	w.complEv = nil
	w.rt.Completed++
	w.rt.m.Cores[w.coreID].Account.Charge(core.CatWork, uint64(th.Remaining))
	th.Remaining = 0
	if th.OnDone != nil {
		th.OnDone(now, th)
	}
	w.maybeRun(now)
}

// preemptIntr handles a delivered preemption interrupt on the worker core.
// now is post-delivery (the receiver cost already elapsed); the interrupt
// delivery itself stole cycles from the running thread, so the elapsed
// progress excludes it.
func (w *worker) preemptIntr(now sim.Time, mech core.Mechanism) {
	if w.current == nil {
		return
	}
	cost := w.rt.m.Costs.Receiver(mech)
	fireAt := now - cost
	if fireAt <= w.sliceStart {
		// The thread barely started (or the interrupt raced a context
		// switch); let it run.
		w.restart(now)
		return
	}
	elapsed := fireAt - w.sliceStart
	if elapsed >= w.current.Remaining {
		// It would have finished during delivery; let the completion
		// event handle it (it is already scheduled before `now`... but
		// delivery delayed it). Recompute: finish immediately.
		w.rt.sim.Cancel(w.complEv)
		w.rt.m.Cores[w.coreID].Account.Charge(core.CatWork, uint64(w.current.Remaining))
		w.current.Remaining = 0
		th := w.current
		w.current = nil
		w.complEv = nil
		w.rt.Completed++
		if th.OnDone != nil {
			th.OnDone(now, th)
		}
		w.maybeRun(now)
		return
	}
	w.rt.m.Cores[w.coreID].Account.Charge(core.CatWork, uint64(elapsed))
	w.current.Remaining -= elapsed
	w.current.preemptions++
	w.rt.sim.Cancel(w.complEv)
	th := w.current
	w.current = nil
	w.complEv = nil
	if w.queued() == 0 {
		// Nothing else to run: resume the same thread; the handler
		// returns directly to it with minimal cost (§6.1: "as we return
		// to the same thread... costs of context switches are minimized").
		w.current = th
		w.sliceStart = now
		w.complEv = w.rt.sim.Schedule(now+th.Remaining, w.finishFn)
		return
	}
	w.push(th)
	w.maybeRun(now)
	w.rt.kickIdle(now)
}

// restart re-arms the completion event after a spurious preemption.
func (w *worker) restart(now sim.Time) {
	th := w.current
	w.rt.sim.Cancel(w.complEv)
	// Progress made before the interrupt fired is preserved in Remaining
	// accounting only at preemption; for a spurious early interrupt we
	// simply restart the slice.
	w.sliceStart = now
	w.complEv = w.rt.sim.Schedule(now+th.Remaining, w.finishFn)
}
