package experiments

import (
	"context"
	"sync/atomic"

	"xui/internal/check"
	"xui/internal/core"
	"xui/internal/cpu"
	"xui/internal/isa"
	"xui/internal/obs"
	"xui/internal/runcache"
	"xui/internal/sweep"
	"xui/internal/trace"
)

// Env is the run environment: everything one experiment run is
// configured with. Every experiment entry point is a method on *Env, so
// runs on two Envs never see each other's settings. The zero Env is the
// default run: one sweep worker per host core, no observability or
// checking, the redundancy layer on, the fast engine.
//
// Set the fields before the first run; an Env must not be copied once
// used, because it numbers the Tier-1 cores its runs build and owns
// their recorded instruction tapes and its run memo. The tapes last for
// one job: RunJob and RenderJob drop them when they return. The memo
// lasts as long as the Env, so every job run on one Env shares it and
// no two Envs do.
type Env struct {
	// Workers is the grid-sweep worker-pool size; <= 0 means one per
	// host core. Each grid point builds its own simulator and results
	// land by job index (internal/sweep), so rows are byte-identical at
	// any value.
	Workers int
	// Obs receives the trace and metrics of every receiver core, Tier-2
	// machine and sweep the run builds; nil disables observability at
	// the cost of one pointer test per construction.
	Obs *obs.Context
	// Check, when non-nil, attaches the invariant checker to every
	// receiver core and Tier-2 machine the run builds. Parallel sweep
	// workers all report into the one mutex-protected collector.
	Check *check.Collector
	// Progress, when non-nil, is called after each completed grid point
	// with the sweep's name and completion counts, serialised per sweep
	// but possibly from sweep worker goroutines.
	Progress func(sweep string, done, total int)
	// NoCache selects the uncached reference path: no run cache, no
	// recorded tapes, no pooled receiver rigs. Rows never depend on it
	// (TestRunCacheParity); only wall time does.
	NoCache bool
	// Engine is the Tier-1 execution engine of every core the run
	// builds. The zero value is the fast engine; EngineInterpreted is
	// the reference path TestFastForwardParity compares against.
	Engine cpu.Engine
	// Ctx, when non-nil, cancels the run's grid sweeps: once it is done
	// no new grid point starts, and the points that never ran come back
	// as zero rows. The result of a cancelled run is incomplete, so a
	// caller that cancels must check Ctx.Err() and discard it. Points
	// already running finish; a run with no grid is not interrupted.
	Ctx context.Context

	// tid is the next Tier-1 trace thread ID. Parallel sweep workers
	// build cores concurrently, so numbering follows completion order,
	// which only affects trace thread labels, never results.
	tid atomic.Uint32
	// tapes holds the instruction tapes the current job's streams
	// record and replay; created by the first stream, dropped by
	// dropTapes.
	tapes atomic.Pointer[trace.TapeSet]
	// memos holds the Tier-1 run memo; created by the first memoized
	// run and kept for the Env's lifetime.
	memos atomic.Pointer[runMemo]
}

// runGrid fans fn over jobs on e's worker pool, attaching e's
// observability sink so sweeps appear in exported traces. Results are
// returned in job order — grid experiments iterate their parameter space
// to build jobs, call runGrid, then assemble rows in the same order,
// which keeps output identical to a serial loop.
func runGrid[J, R any](e *Env, name string, jobs []J, fn func(i int, job J) R) []R {
	opts := sweep.Options{
		Workers: e.Workers,
		Name:    name,
		Obs:     e.Obs,
		Ctx:     e.Ctx,
	}
	if prog := e.Progress; prog != nil {
		opts.OnProgress = func(done, total int) { prog(name, done, total) }
	}
	//xui:nondet sweep wall-clock feeds only metrics, trace timestamps and ETA, never simulated state; results stay in job order
	out, _ := sweep.RunOpts(jobs, opts, fn)
	return out
}

// newCore builds a Tier-1 core on e's engine and attaches e's pipeline
// observer.
func (e *Env) newCore(cfg cpu.Config, prog isa.Stream, port cpu.MemPort) *cpu.Core {
	cfg.Engine = e.Engine
	c := cpu.New(cfg, prog, port)
	e.observeCore(c)
	return c
}

// observeCore attaches a trace/metrics pipeline observer to a freshly
// built or reset Tier-1 core, numbering cores in construction order.
func (e *Env) observeCore(c *cpu.Core) {
	if e.Obs == nil {
		return
	}
	tid := e.tid.Add(1) - 1
	c.SetObserver(obs.NewPipeline(e.Obs.Trace, e.Obs.Metrics, obs.Tier1Pid, tid))
}

// checkCore wraps a Tier-1 core with the invariant checker when e checks.
// Returns nil when off; finishCore is nil-safe, so callers bracket
// unconditionally.
func (e *Env) checkCore(c *cpu.Core, name string) *check.CoreChecker {
	if e.Check == nil {
		return nil
	}
	return check.WrapCore(e.Check, c, name)
}

// finishCore runs the checker's end-of-run invariants and detaches it,
// restoring whatever observer was installed before the wrap (pooled rigs
// must never carry a stale checker into their next run).
func finishCore(cc *check.CoreChecker) {
	if cc != nil {
		cc.FinishCore()
		cc.Detach()
	}
}

// observeMachine attaches e's observability context and invariant
// checker to a freshly built Tier-2 machine. The checker rides in
// Machine.Check, where snapshotMachine recovers it.
func (e *Env) observeMachine(m *core.Machine) {
	if e.Obs != nil {
		m.Observe(e.Obs)
	}
	if e.Check != nil {
		check.Attach(e.Check, m, "tier2")
	}
}

// snapshotMachine imports a machine's end-of-run accounting (per-category
// cycles, utilization, delivered totals) into e's registry and runs the
// checker's end-of-run invariants. Call once per machine when its run
// ends.
func (e *Env) snapshotMachine(m *core.Machine) {
	if e.Obs != nil {
		m.SnapshotMetrics(e.Obs.Metrics)
	}
	if mc, ok := m.Check.(*check.MachineChecker); ok {
		mc.Finish()
	}
}

// streamSpec names a deterministic instruction stream: a ByName
// microbenchmark, optionally safepoint-annotated every N ops, or — with
// mk set — an arbitrary generator recorded under key. Poll-instrumented
// streams need a release and come from pollBaseline instead.
type streamSpec struct {
	workload  string
	seed      uint64
	safepoint int
	key       string
	mk        func() isa.Stream
}

// stream is the one place a run chooses between a recorded tape and a
// live generator: a cursor over e's tape (sized for a run of budget
// ops), or on the uncached reference path the live generator the tape
// records.
func (e *Env) stream(s streamSpec, budget uint64) isa.Stream {
	switch {
	case s.mk != nil && e.NoCache:
		return s.mk()
	case s.safepoint > 0 && e.NoCache:
		return trace.NewSafepointAnnotated(trace.ByName(s.workload, s.seed), s.safepoint)
	case e.NoCache:
		return trace.ByName(s.workload, s.seed)
	}
	tapes := e.tapeSet()
	switch {
	case s.mk != nil:
		return tapes.RecordedStream(s.key, budget, s.mk)
	case s.safepoint > 0:
		return tapes.RecordedSafepoint(s.workload, s.seed, budget, s.safepoint)
	}
	return tapes.Recorded(s.workload, s.seed, budget)
}

// tapeSet returns e's tape set, creating it on first use. Sweep workers
// of one job race here, and all of them get the one set.
func (e *Env) tapeSet() *trace.TapeSet {
	for {
		if s := e.tapes.Load(); s != nil {
			return s
		}
		e.tapes.CompareAndSwap(nil, new(trace.TapeSet))
	}
}

// dropTapes releases e's tape set once its job is done; the next stream
// starts a fresh one.
func (e *Env) dropTapes() { e.tapes.Store(nil) }

// memo returns e's run memo, creating it on first use. Sweep workers
// race here as in tapeSet, and all of them get the one memo.
func (e *Env) memo() *runMemo {
	for {
		if m := e.memos.Load(); m != nil {
			return m
		}
		e.memos.CompareAndSwap(nil, &runMemo{
			baseline: runcache.New[cpu.Result](baselineCounts),
			receiver: runcache.New[cpu.Result](receiverCounts),
			senduipi: runcache.New[senduipiCost](senduipiCounts),
		})
	}
}
