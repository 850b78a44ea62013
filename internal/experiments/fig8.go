package experiments

import (
	"xui/internal/core"
	"xui/internal/lpm"
	"xui/internal/netsim"
	"xui/internal/sim"
)

// Fig8Row is one point of Figure 8: the cycle breakdown of the l3fwd core
// at a given load and queue count, under polling or xUI device interrupts.
type Fig8Row struct {
	Mode          string
	NICs          int
	LoadPct       float64 // offered load as % of core forwarding capacity
	NetPct        float64 // cycles spent forwarding packets
	PollPct       float64 // cycles spent polling (empty rx_burst + re-check)
	NotifyPct     float64 // cycles spent in interrupt delivery
	FreePct       float64 // cycles left over
	ThroughputPPS float64
	P95Us         float64
	Dropped       uint64

	// Interrupt delivery-latency percentiles (cycles, recognise →
	// delivery complete) on the forwarding core; zero in poll mode.
	DelivP50Cy  uint64
	DelivP99Cy  uint64
	DelivP999Cy uint64
}

// Fig8 sweeps load for each queue count and both modes over the given
// horizon. Paper anchors: polling always consumes the whole core; at 40 %
// load with one queue xUI leaves ≈45 % of cycles free; throughput parity
// within 0.08 %; p95 latency +2 %/−8 %/+65 % for 1/4/8 NICs.
func (e *Env) Fig8(nicCounts []int, loadsPct []float64, horizon sim.Time) []Fig8Row {
	type job struct {
		mode netsim.Mode
		nq   int
		load float64
	}
	var jobs []job
	for _, nq := range nicCounts {
		for _, load := range loadsPct {
			jobs = append(jobs, job{netsim.PollMode, nq, load}, job{netsim.InterruptMode, nq, load})
		}
	}
	// One routing table serves every point, as in scaleEdge: it is
	// read-only during a run. A fresh table per point would make the
	// heap's peak depend on where the collector's cycles fell.
	table := lpm.GenerateTable(16000, 7)
	return runGrid(e, "fig8", jobs, func(_ int, j job) Fig8Row {
		return e.fig8Point(table, j.mode, j.nq, j.load, horizon)
	})
}

func (e *Env) fig8Point(table *lpm.Table, mode netsim.Mode, nq int, loadPct float64, horizon sim.Time) Fig8Row {
	s := sim.New(2024)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	v := m.Cores[0]

	// Offered load: loadPct of the core's forwarding capacity, split
	// evenly across queues.
	capacityPPS := float64(sim.CyclesPerSecond) / float64(netsim.PacketCost)
	totalRate := capacityPPS * loadPct / 100
	perNICGap := sim.Time(float64(sim.CyclesPerSecond) / (totalRate / float64(nq)))

	var nics []*netsim.NIC
	for i := 0; i < nq; i++ {
		nics = append(nics, netsim.NewNIC(s, i))
	}
	l3, err := netsim.NewL3Fwd(s, table, nics, v, mode)
	if err != nil {
		panic(err)
	}
	if mode == netsim.InterruptMode {
		l3.RouteInterrupts(m.IOAPIC, 0x30)
	}
	var gens []*netsim.Generator
	for i, n := range nics {
		gens = append(gens, netsim.StartGenerator(s, n, perNICGap, uint64(100+i)))
	}
	l3.Start()
	s.RunUntil(horizon)
	e.snapshotMachine(m)
	for _, g := range gens {
		g.Stop()
	}
	l3.Stop()

	total := float64(horizon)
	net := float64(v.Account.Get(core.CatWork))
	poll := float64(v.Account.Get(core.CatPoll))
	notify := float64(v.Account.Get(core.CatNotify))
	free := total - net - poll - notify
	if free < 0 {
		free = 0
	}
	var dropped uint64
	for _, n := range nics {
		dropped += n.Dropped
	}
	dl := m.DeliveryLatency()
	return Fig8Row{
		Mode:          mode.String(),
		NICs:          nq,
		LoadPct:       loadPct,
		NetPct:        100 * net / total,
		PollPct:       100 * poll / total,
		NotifyPct:     100 * notify / total,
		FreePct:       100 * free / total,
		ThroughputPPS: float64(l3.Forwarded+l3.NoRoute) / horizon.Seconds(),
		P95Us:         sim.Time(l3.Latency.Percentile(95)).Micros(),
		Dropped:       dropped,
		DelivP50Cy:    dl.Percentile(50),
		DelivP99Cy:    dl.Percentile(99),
		DelivP999Cy:   dl.Percentile(99.9),
	}
}
