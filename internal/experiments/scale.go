package experiments

import (
	"xui/internal/apic"
	"xui/internal/core"
	"xui/internal/kernel"
	"xui/internal/kvstore"
	"xui/internal/loadgen"
	"xui/internal/lpm"
	"xui/internal/netsim"
	"xui/internal/shard"
	"xui/internal/sim"
	"xui/internal/stats"
	"xui/internal/uintr"
	"xui/internal/urt"
)

// The scale family runs the paper's end-to-end topologies (the fig7 Aspen
// cluster and the fig8 l3fwd edge) at machine sizes far past a single
// event kernel: tens of shard-local groups over a sharded Tier-2 engine
// (internal/shard), with cross-shard senduipi aggregation and conventional
// cross-shard IPI broadcasts crossing the epoch-synchronized mailboxes.
// The logical topology — group count, cores per group, seeds, interconnect
// latency — is fixed per configuration, and one goroutine drives every
// shard kernel of a run, epoch by epoch.

// ScaleCrossLatency is the modelled inter-group interconnect latency
// (cycles, ≈1 µs at 2 GHz) on top of the APIC bus hop. It bounds the
// engine's epoch lookahead: larger values mean fewer, cheaper barriers.
const ScaleCrossLatency sim.Time = 2000

// scaleLookahead is the conservative epoch window: the minimum time any
// cross-shard message spends in flight.
const scaleLookahead = apic.BusLatency + ScaleCrossLatency

// ScaleConfig is one scale-family topology.
type ScaleConfig struct {
	Mode          string // "cluster" (fig7-style) or "edge" (fig8-style)
	Groups        int    // shard-local core groups, one event kernel each
	CoresPerGroup int
	PerGroupRPS   float64  // cluster: offered load per group
	NICsPerGroup  int      // edge: receive queues per forwarding core
	LoadPct       float64  // edge: offered load, % of forwarding capacity
	Horizon       sim.Time // simulated run length
}

// ScaleConfigs returns the family's configurations. The full cluster point
// is the acceptance topology: 64 groups × 4 cores = 256 simulated cores,
// with enough offered load that well over a million user threads complete.
func ScaleConfigs(quick bool) []ScaleConfig {
	if quick {
		return []ScaleConfig{
			{Mode: "cluster", Groups: 8, CoresPerGroup: 2, PerGroupRPS: 150_000, Horizon: 4 * sim.Millisecond},
			{Mode: "edge", Groups: 4, CoresPerGroup: 2, NICsPerGroup: 2, LoadPct: 40, Horizon: 4 * sim.Millisecond},
		}
	}
	return []ScaleConfig{
		{Mode: "cluster", Groups: 64, CoresPerGroup: 4, PerGroupRPS: 450_000, Horizon: 40 * sim.Millisecond},
		{Mode: "edge", Groups: 32, CoresPerGroup: 2, NICsPerGroup: 4, LoadPct: 40, Horizon: 20 * sim.Millisecond},
	}
}

// ScaleRow is one configuration's deterministic results. Wall time is
// deliberately absent: rows are compared byte-for-byte across runs, so
// only simulated quantities belong here (a -report document's wallMs
// carries the wall time).
type ScaleRow struct {
	Mode          string
	Groups        int
	CoresPerGroup int
	Cores         int
	Spawned       uint64  // cluster: user threads issued; edge: packets offered
	Completed     uint64  // cluster: user threads finished; edge: packets forwarded
	Dropped       uint64  // edge: ring-full drops
	GetP99Us      float64 // cluster: GET p99 across all groups
	CrossMsgs     uint64  // messages through the epoch-synchronized mailboxes
	Epochs        uint64  // conservative time windows the engine ran
	AggRecv       uint64  // cross-group senduipi received by the group-0 aggregator
	Rebalances    uint64  // conventional IPI broadcasts the aggregator sent back
}

// Scale runs the family's configurations one after another.
func (e *Env) Scale(quick bool) []ScaleRow {
	cfgs := ScaleConfigs(quick)
	rows := make([]ScaleRow, len(cfgs))
	for i, c := range cfgs {
		rows[i] = e.ScalePoint(c)
	}
	return rows
}

// ScalePoint runs one configuration on a sharded engine.
func (e *Env) ScalePoint(cfg ScaleConfig) ScaleRow {
	switch cfg.Mode {
	case "cluster":
		return e.scaleCluster(cfg)
	case "edge":
		return e.scaleEdge(cfg)
	}
	panic("experiments: unknown scale mode " + cfg.Mode)
}

// scaleCluster is fig7 at cluster width: every group runs its own Aspen
// runtime (KB_Timer preemption, shard-local kernel) under open-loop
// bimodal load. Each group reports every 64th completion to an aggregator
// thread homed on group 0 via senduipi — cross-shard for all but group 0 —
// and the aggregator answers every 256th report with a conventional
// "rebalance" IPI broadcast to every other group, exercising the
// cross-shard bus router in the opposite direction.
func (e *Env) scaleCluster(cfg ScaleConfig) ScaleRow {
	g, cpg := cfg.Groups, cfg.CoresPerGroup
	eng := shard.New(0xA11CE, g, scaleLookahead)
	m, err := core.NewSharded(eng, cpg, core.TrackedIPI, ScaleCrossLatency)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)

	kerns := make([]*kernel.Kernel, g)
	for i := 0; i < g; i++ {
		kerns[i] = kernel.NewOn(m, i*cpg, cpg)
	}

	// Aggregator: core 0 of group 0 runs a dedicated receiver thread; the
	// group-0 runtime uses the remaining cores.
	var aggRecv, rebalances uint64
	agg := kerns[0].NewThread()
	aggAPIC := m.Cores[0].APIC
	kerns[0].RegisterHandler(agg, func(now sim.Time, _ uintr.Vector, _ core.Mechanism) {
		aggRecv++
		if aggRecv%256 == 0 {
			rebalances++
			for dst := 1; dst < g; dst++ {
				if err := aggAPIC.SendIPI(uint32(dst*cpg), 0x40); err != nil {
					panic(err)
				}
			}
		}
	})
	kerns[0].ScheduleOn(agg, 0)

	// Every group registers a sender entry for the aggregator in its own
	// kernel's UITT at setup; the tables are frozen before the run starts,
	// which is what lets remote shards read them during epochs.
	aggIdx := make([]int, g)
	for i := 0; i < g; i++ {
		idx, err := kerns[i].RegisterSender(agg, 7)
		if err != nil {
			panic(err)
		}
		aggIdx[i] = idx
	}

	costs := kvstore.DefaultCostModel()
	rts := make([]*urt.Runtime, g)
	recs := make([]*loadgen.Recorder, g)
	gens := make([]*loadgen.OpenLoop, g)
	for i := 0; i < g; i++ {
		first, workers := i*cpg, cpg
		if i == 0 {
			first, workers = 1, cpg-1
		}
		rt, err := urt.New(m, kerns[i], urt.Config{
			Workers:   workers,
			Preempt:   urt.KBTimer,
			Quantum:   fig7Quantum,
			FirstCore: first,
		})
		if err != nil {
			panic(err)
		}
		rts[i] = rt
		recs[i] = loadgen.NewRecorder()

		// All state below is owned by group i's shard: the generator, RNG,
		// recorder and completion counter only ever run on its goroutine.
		gi, firstCore, nw := i, first, workers
		rng := sim.NewRNG(uint64(2000 + i))
		var completions uint64
		// One completion handler per group: every 64th completion reports
		// to the aggregator from the core its thread was spawned on.
		onDone := func(done sim.Time, th *urt.UThread) {
			recs[gi].Record(th.Class, uint64(done-th.Arrived))
			completions++
			if completions%64 == 0 {
				if err := m.SendUIPI(firstCore+int(th.Worker), kerns[gi].UITT(), aggIdx[gi]); err != nil {
					panic(err)
				}
			}
		}
		rps := cfg.PerGroupRPS * float64(workers) / float64(cpg)
		gen, err := loadgen.StartOpenLoop(eng.Shard(i), uint64(1000+i), rps, func(now sim.Time, id uint64) {
			class, service := "GET", costs.SampleGet(rng)
			if rng.Bool(0.002) {
				class, service = "SCAN", costs.SampleScan(rng)
			}
			rt.Spawn(int(id)%nw, class, service, onDone)
		})
		if err != nil {
			panic(err)
		}
		gens[i] = gen
	}

	eng.RunUntil(cfg.Horizon)
	e.snapshotMachine(m)
	for _, gen := range gens {
		gen.Stop()
	}

	row := ScaleRow{
		Mode:          cfg.Mode,
		Groups:        g,
		CoresPerGroup: cpg,
		Cores:         g * cpg,
		CrossMsgs:     eng.Sent(),
		Epochs:        eng.Epochs(),
		AggRecv:       aggRecv,
		Rebalances:    rebalances,
	}
	merged := stats.NewHistogram()
	for i := 0; i < g; i++ {
		row.Spawned += rts[i].Scheduled
		row.Completed += rts[i].Completed
		if h := recs[i].Class("GET"); h != nil {
			merged.Merge(h)
		}
	}
	row.GetP99Us = sim.Time(merged.Percentile(99)).Micros()
	return row
}

// scaleEdge is fig8 at edge width: every group forwards packets from its
// own NICs on a shard-local l3fwd core under xUI device interrupts, and
// reports forwarding statistics to the group-0 aggregator with a periodic
// cross-shard senduipi.
func (e *Env) scaleEdge(cfg ScaleConfig) ScaleRow {
	g, cpg, nq := cfg.Groups, cfg.CoresPerGroup, cfg.NICsPerGroup
	eng := shard.New(0xED6E, g, scaleLookahead)
	m, err := core.NewSharded(eng, cpg, core.TrackedIPI, ScaleCrossLatency)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)

	// Aggregator thread on core 1 of group 0; forwarding runs on core 0 of
	// every group. One shared routing table: it is read-only during the
	// run, so all shards can look routes up in it.
	k0 := kernel.NewOn(m, 0, cpg)
	var aggRecv uint64
	agg := k0.NewThread()
	k0.RegisterHandler(agg, func(sim.Time, uintr.Vector, core.Mechanism) { aggRecv++ })
	k0.ScheduleOn(agg, 1)
	aggIdx, err := k0.RegisterSender(agg, 9)
	if err != nil {
		panic(err)
	}
	table := lpm.GenerateTable(16000, 7)

	capacityPPS := float64(sim.CyclesPerSecond) / float64(netsim.PacketCost)
	perNICGap := sim.Time(float64(sim.CyclesPerSecond) / (capacityPPS * cfg.LoadPct / 100 / float64(nq)))

	fwds := make([]*netsim.L3Fwd, g)
	nicsAll := make([][]*netsim.NIC, g)
	var gens []*netsim.Generator
	for i := 0; i < g; i++ {
		s := eng.Shard(i)
		fwdCore := i * cpg
		v := m.Cores[fwdCore]
		var nics []*netsim.NIC
		for q := 0; q < nq; q++ {
			nics = append(nics, netsim.NewNIC(s, q))
		}
		l3, err := netsim.NewL3Fwd(s, table, nics, v, netsim.InterruptMode)
		if err != nil {
			panic(err)
		}
		l3.RouteInterrupts(m.IOAPICs[i], 0x30)
		for q, n := range nics {
			gens = append(gens, netsim.StartGenerator(s, n, perNICGap, uint64(100+i*nq+q)))
		}
		// The periodic stats report: cross-shard senduipi for every group
		// but 0. The offset staggers groups so reports do not all land on
		// the aggregator in the same cycle.
		core0, gi := fwdCore, i
		s.Schedule(sim.Time(100+i*17), func(sim.Time) {
			eng.Shard(gi).Every(200*sim.Microsecond, func(sim.Time) {
				if err := m.SendUIPI(core0, k0.UITT(), aggIdx); err != nil {
					panic(err)
				}
			})
		})
		l3.Start()
		fwds[i] = l3
		nicsAll[i] = nics
	}

	eng.RunUntil(cfg.Horizon)
	e.snapshotMachine(m)
	for _, gen := range gens {
		gen.Stop()
	}

	row := ScaleRow{
		Mode:          cfg.Mode,
		Groups:        g,
		CoresPerGroup: cpg,
		Cores:         g * cpg,
		CrossMsgs:     eng.Sent(),
		Epochs:        eng.Epochs(),
		AggRecv:       aggRecv,
	}
	for i := 0; i < g; i++ {
		row.Completed += fwds[i].Forwarded + fwds[i].NoRoute
		for _, n := range nicsAll[i] {
			row.Spawned += n.Received + n.Dropped
			row.Dropped += n.Dropped
		}
	}
	return row
}
