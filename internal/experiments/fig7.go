package experiments

import (
	"fmt"
	"strconv"
	"sync"

	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/kvstore"
	"xui/internal/loadgen"
	"xui/internal/sim"
	"xui/internal/urt"
)

// Fig7Config selects one of the three RocksDB/Aspen configurations.
type Fig7Config struct {
	Name    string
	Preempt urt.PreemptMode
	IPIMech core.Mechanism
}

// Fig7Configs returns the paper's three lines.
func Fig7Configs() []Fig7Config {
	return []Fig7Config{
		{Name: "no-preempt", Preempt: urt.NoPreempt, IPIMech: core.TrackedIPI},
		{Name: "uipi-sw-timer", Preempt: urt.UIPITimerCore, IPIMech: core.UIPI},
		{Name: "xui-kbtimer", Preempt: urt.KBTimer, IPIMech: core.TrackedIPI},
	}
}

// Fig7Row is one measured point: tail latency per class at one offered
// load under one configuration.
type Fig7Row struct {
	Config      string
	OfferedRPS  float64
	AchievedRPS float64
	GetP99Us    float64
	GetP999Us   float64
	ScanP99Us   float64
	Completed   uint64

	// Interrupt delivery-latency percentiles (cycles, recognise →
	// delivery complete) across all machine cores: the preemption
	// mechanism's own tail under the same load the request tails above
	// are measured at. Exact integers from the order-independent
	// histogram, so rows are byte-identical at any worker count.
	DelivP50Cy  uint64
	DelivP99Cy  uint64
	DelivP999Cy uint64
}

// Fig7 sweeps offered load for each configuration. The workload is the
// paper's bimodal mix — 99.5 % GET (1.2 µs) / 0.5 % SCAN (580 µs) with
// Poisson arrivals into an Aspen-like runtime on one server core, 5 µs
// preemption quantum. The key-value store really executes each request;
// the simulated service time comes from the calibrated cost model.
func (e *Env) Fig7(loads []float64, horizon sim.Time) []Fig7Row {
	type job struct {
		cfg  Fig7Config
		load float64
	}
	var jobs []job
	for _, cfg := range Fig7Configs() {
		for _, load := range loads {
			jobs = append(jobs, job{cfg, load})
		}
	}
	return runGrid(e, "fig7", jobs, func(_ int, j job) Fig7Row {
		return e.fig7Point(j.cfg, j.load, horizon)
	})
}

const fig7Quantum = 5 * 2000 // 5 µs

// fig7Store is the real store every fig7 point executes its requests
// against, pre-populated with 20k ordered keys. Requests only Get and
// Scan, so the filled store is built once per process and shared by the
// sweep workers.
var fig7Store = sync.OnceValue(func() *kvstore.Store {
	store := kvstore.Open(5)
	for i := 0; i < 20000; i++ {
		store.Put([]byte(fmt.Sprintf("user%08d", i)), []byte(fmt.Sprintf("profile-%d", i)))
	}
	return store
})

func (e *Env) fig7Point(cfg Fig7Config, rps float64, horizon sim.Time) Fig7Row {
	s := sim.New(1234)
	nCores := 1
	if cfg.Preempt == urt.UIPITimerCore {
		nCores = 2
	}
	m, err := core.NewMachine(s, nCores, cfg.IPIMech)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	k := kernel.New(m)
	rt, err := urt.New(m, k, urt.Config{
		Workers: 1,
		Preempt: cfg.Preempt,
		Quantum: fig7Quantum,
	})
	if err != nil {
		panic(err)
	}

	q := newFig7Requests(rt)
	gen, err := loadgen.StartOpenLoop(s, 99, rps, q.issue)
	if err != nil {
		panic(err)
	}
	s.RunUntil(horizon)
	e.snapshotMachine(m)
	gen.Stop()

	row := Fig7Row{Config: cfg.Name, OfferedRPS: rps}
	row.Completed = rt.Completed
	row.AchievedRPS = float64(rt.Completed) / horizon.Seconds()
	if h := q.rec.Class("GET"); h != nil {
		row.GetP99Us = sim.Time(h.Percentile(99)).Micros()
		row.GetP999Us = sim.Time(h.Percentile(99.9)).Micros()
	}
	if h := q.rec.Class("SCAN"); h != nil {
		row.ScanP99Us = sim.Time(h.Percentile(99)).Micros()
	}
	dl := m.DeliveryLatency()
	row.DelivP50Cy = dl.Percentile(50)
	row.DelivP99Cy = dl.Percentile(99)
	row.DelivP999Cy = dl.Percentile(99.9)
	return row
}

// fig7Requests issues one fig7 point's requests into its runtime and, at
// each completion, executes the request against the store and records
// its latency. The completion handler is bound once; a request's key
// index rides on its thread as UThread.Arg and is formatted into a
// reused buffer only when the request completes.
type fig7Requests struct {
	rt     *urt.Runtime
	store  *kvstore.Store
	costs  kvstore.CostModel
	rng    *sim.RNG
	rec    *loadgen.Recorder
	key    []byte
	onDone func(now sim.Time, th *urt.UThread)
}

func newFig7Requests(rt *urt.Runtime) *fig7Requests {
	q := &fig7Requests{
		rt:    rt,
		store: fig7Store(),
		costs: kvstore.DefaultCostModel(),
		rng:   sim.NewRNG(77),
		rec:   loadgen.NewRecorder(),
		key:   make([]byte, 0, 16),
	}
	q.onDone = q.complete
	return q
}

// issue draws one request's class, service time and key index, in that
// order, and spawns it on worker 0.
func (q *fig7Requests) issue(_ sim.Time, _ uint64) {
	isScan := q.rng.Bool(0.005)
	class := "GET"
	service := q.costs.SampleGet(q.rng)
	if isScan {
		class = "SCAN"
		service = q.costs.SampleScan(q.rng)
	}
	q.rt.SpawnArg(0, class, service, uint64(q.rng.Intn(20000)), q.onDone)
}

// complete executes the real operation at completion.
func (q *fig7Requests) complete(done sim.Time, th *urt.UThread) {
	q.key = appendUserKey(q.key[:0], int(th.Arg))
	if th.Class == "SCAN" {
		q.store.Scan(q.key, 100, func(_, _ []byte) {})
	} else {
		q.store.Get(q.key)
	}
	q.rec.Record(th.Class, uint64(done-th.Arrived))
}

// appendUserKey appends the store key for index i ≥ 0 to dst: the bytes
// of fmt.Sprintf("user%08d", i).
func appendUserKey(dst []byte, i int) []byte {
	dst = append(dst, "user"...)
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(i), 10)
	for n := len(digits); n < 8; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Fig7Capacity finds, for each configuration, the highest offered load in
// loads whose GET p99 stays under sloUs — the "useful throughput" the
// paper compares (xUI ≈ +10 % over UIPI).
func Fig7Capacity(rows []Fig7Row, sloUs float64) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.GetP99Us > 0 && r.GetP99Us <= sloUs && r.OfferedRPS > out[r.Config] {
			out[r.Config] = r.OfferedRPS
		}
	}
	return out
}
