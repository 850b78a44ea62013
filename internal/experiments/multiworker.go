package experiments

import (
	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/kvstore"
	"xui/internal/loadgen"
	"xui/internal/sim"
	"xui/internal/urt"
)

// MultiWorkerRow is one point of the multi-worker scaling study: the
// RocksDB workload spread over several Aspen workers with work stealing,
// preempted by per-core KB_Timers. The paper pins its server to one core
// (§5.3, to reduce gem5 noise); this study shows the runtime substrate
// generalises the way Aspen itself does.
type MultiWorkerRow struct {
	Workers     int
	Steal       bool
	OfferedRPS  float64
	AchievedRPS float64
	GetP99Us    float64
	// Imbalance is max/min worker utilization; stealing should pull it
	// toward 1 even though arrivals target worker 0 only.
	Imbalance float64
}

// MultiWorker sweeps worker counts with and without stealing. All arrivals
// enqueue on worker 0; without stealing the extra cores idle.
func (e *Env) MultiWorker(workers []int, rps float64, horizon sim.Time) []MultiWorkerRow {
	type job struct {
		n     int
		steal bool
	}
	var jobs []job
	for _, n := range workers {
		for _, steal := range []bool{false, true} {
			if n == 1 && steal {
				continue
			}
			jobs = append(jobs, job{n, steal})
		}
	}
	return runGrid(e, "multiworker", jobs, func(_ int, j job) MultiWorkerRow {
		return e.multiWorkerPoint(j.n, j.steal, rps, horizon)
	})
}

func (e *Env) multiWorkerPoint(workers int, steal bool, rps float64, horizon sim.Time) MultiWorkerRow {
	s := sim.New(8)
	m, err := core.NewMachine(s, workers, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	k := kernel.New(m)
	rt, err := urt.New(m, k, urt.Config{
		Workers:      workers,
		Preempt:      urt.KBTimer,
		Quantum:      fig7Quantum,
		StealEnabled: steal,
	})
	if err != nil {
		panic(err)
	}
	costs := kvstore.DefaultCostModel()
	rng := sim.NewRNG(77)
	rec := loadgen.NewRecorder()
	onDone := func(done sim.Time, th *urt.UThread) {
		rec.Record(th.Class, uint64(done-th.Arrived))
	}
	gen, err := loadgen.StartOpenLoop(s, 99, rps, func(now sim.Time, _ uint64) {
		class, service := "GET", costs.SampleGet(rng)
		if rng.Bool(0.005) {
			class, service = "SCAN", costs.SampleScan(rng)
		}
		rt.Spawn(0, class, service, onDone)
	})
	if err != nil {
		panic(err)
	}
	s.RunUntil(horizon)
	e.snapshotMachine(m)
	gen.Stop()

	row := MultiWorkerRow{Workers: workers, Steal: steal, OfferedRPS: rps}
	row.AchievedRPS = float64(rt.Completed) / horizon.Seconds()
	if h := rec.Class("GET"); h != nil {
		row.GetP99Us = sim.Time(h.Percentile(99)).Micros()
	}
	minU, maxU := 2.0, 0.0
	for i := 0; i < workers; i++ {
		u := rt.WorkerBusy(i).Utilization(uint64(horizon))
		if u < minU {
			minU = u
		}
		if u > maxU {
			maxU = u
		}
	}
	if minU > 0 {
		row.Imbalance = maxU / minU
	} else {
		row.Imbalance = 0 // some worker never ran at all
	}
	return row
}
