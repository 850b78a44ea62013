package core

import (
	"fmt"

	"xui/internal/apic"
	"xui/internal/obs"
	"xui/internal/shard"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// Sharded Tier-2 machines (DESIGN.md §13). A sharded machine partitions
// its cores into equal groups, one per shard of a shard.Engine: each group
// gets its own event kernel, interrupt bus and IOAPIC, all owned by one
// goroutine per epoch. Cross-group traffic — senduipi to a thread homed on
// another shard, IPIs, IOAPIC asserts and extended device messages for
// remote cores — crosses through the engine's epoch-synchronized
// mailboxes with an interconnect latency of CrossLatency cycles on top of
// the bus hop, so the engine's lookahead (≤ BusLatency + CrossLatency)
// bounds every cross-shard dependency and results are byte-identical at
// any worker count.

// NewSharded builds a machine of eng.Shards()×coresPerGroup cores over a
// sharded engine. Core IDs are global and contiguous; core id belongs to
// group id/coresPerGroup. crossLatency is the modelled interconnect
// latency between groups (added to the APIC bus hop for every cross-group
// message); the engine's lookahead must not exceed BusLatency +
// crossLatency or conservative synchronization would be violated.
func NewSharded(eng *shard.Engine, coresPerGroup int, ipiMech Mechanism, crossLatency sim.Time) (*Machine, error) {
	if coresPerGroup < 1 {
		return nil, fmt.Errorf("core: need at least one core per group")
	}
	minCross := apic.BusLatency + crossLatency
	if eng.Lookahead() > minCross {
		return nil, fmt.Errorf("core: engine lookahead %d exceeds minimum cross-shard latency %d (bus %d + interconnect %d)",
			eng.Lookahead(), minCross, apic.BusLatency, crossLatency)
	}
	groups := eng.Shards()
	m := &Machine{
		Sim:          eng.Shard(0),
		Costs:        DefaultCosts(),
		Eng:          eng,
		groupSize:    coresPerGroup,
		crossLatency: crossLatency,
		Buses:        make([]*apic.Bus, groups),
		IOAPICs:      make([]*apic.IOAPIC, groups),
	}
	kernels := make([]*sim.Simulator, groups)
	for g := range kernels {
		kernels[g] = eng.Shard(g)
		b := apic.NewBus(kernels[g])
		b.SetRouter(&busRouter{m: m, src: g})
		m.Buses[g] = b
		m.IOAPICs[g] = apic.NewIOAPIC(b)
	}
	m.Bus, m.IOAPIC = m.Buses[0], m.IOAPICs[0]
	if err := m.addCores(ipiMech, coresPerGroup, kernels, m.Buses); err != nil {
		return nil, err
	}
	return m, nil
}

// ShardOf returns the shard (group) owning the given core. Always 0 on a
// classic single-kernel machine.
func (m *Machine) ShardOf(core int) int {
	if m.groupSize == 0 {
		return 0
	}
	return core / m.groupSize
}

// Groups returns the number of core groups (shards); 1 when unsharded.
func (m *Machine) Groups() int {
	if m.Eng == nil {
		return 1
	}
	return m.Eng.Shards()
}

// GroupSize returns cores per group (0 when unsharded).
func (m *Machine) GroupSize() int { return m.groupSize }

// CrossLatency returns the modelled inter-group interconnect latency.
func (m *Machine) CrossLatency() sim.Time { return m.crossLatency }

// busRouter carries interrupt messages whose destination APIC lives on
// another group's bus: the full remaining latency (bus hop + interconnect)
// is paid here, and the message is injected on the destination bus at
// arrival time, on the destination shard's kernel.
type busRouter struct {
	m   *Machine
	src int
}

func (r *busRouter) shardOfAPIC(dest uint32) (int, error) {
	if int(dest) >= len(r.m.Cores) {
		return 0, fmt.Errorf("core: no APIC with ID %d on any group bus", dest)
	}
	return r.m.ShardOf(int(dest)), nil
}

func (r *busRouter) Route(dest uint32, vector uint8) error {
	dst, err := r.shardOfAPIC(dest)
	if err != nil {
		return err
	}
	m := r.m
	when := m.Eng.Shard(r.src).Now() + apic.BusLatency + m.crossLatency
	m.Eng.Send(r.src, dst, when, func(at sim.Time) {
		if err := m.Buses[dst].Deliver(at, dest, vector); err != nil {
			panic(fmt.Sprintf("core: cross-shard route %d→%d: %v", r.src, dst, err))
		}
	})
	return nil
}

func (r *busRouter) RouteExtended(dest uint32, vector uint8, tag apic.ThreadTag) error {
	dst, err := r.shardOfAPIC(dest)
	if err != nil {
		return err
	}
	m := r.m
	when := m.Eng.Shard(r.src).Now() + apic.BusLatency + m.crossLatency
	m.Eng.Send(r.src, dst, when, func(at sim.Time) {
		if err := m.Buses[dst].DeliverExtended(at, dest, vector, tag); err != nil {
			panic(fmt.Sprintf("core: cross-shard route %d→%d: %v", r.src, dst, err))
		}
	})
	return nil
}

// crossSendUIPI finishes a senduipi whose target UPID is homed on another
// shard: the posting protocol (PIR write, ON/SN check, notification
// decision, notification-IPI acceptance) executes on the home shard when
// the message arrives — ICR-write offset plus bus hop plus interconnect
// after the instruction started — so UPID state is only ever touched by
// its home shard. The sender-side charge and trace event were already
// recorded by SendUIPI.
func (m *Machine) crossSendUIPI(sender int, uitt *uintr.UITT, idx, dst int) {
	src := m.Cores[sender]
	delay := IcrOffset
	if m.ExtraSendLatency != nil {
		delay += m.ExtraSendLatency(sender)
	}
	when := src.Sim.Now() + delay + apic.BusLatency + m.crossLatency
	m.Eng.Send(m.ShardOf(sender), dst, when, func(at sim.Time) {
		var entry uintr.UITTEntry
		premerged := false
		if m.Check != nil {
			entry, _ = uitt.Lookup(idx)
			premerged = entry.UPID != nil && entry.UPID.PIR&(1<<entry.Vector) != 0
		}
		notify, ndst, nv, err := uitt.Senduipi(idx)
		if err != nil {
			// The entry was valid when the message departed; a revocation
			// in flight is a model bug on a sharded machine.
			panic(fmt.Sprintf("core: cross-shard senduipi arrived at revoked UITT entry %d: %v", idx, err))
		}
		if m.Check != nil {
			m.Check.Senduipi(at, sender, idx, entry.UPID, entry.Vector, notify, premerged)
		}
		if !notify {
			return
		}
		if err := m.Buses[dst].Deliver(at, ndst, nv); err != nil {
			panic(fmt.Sprintf("core: cross-shard UIPI for shard %d landed on a foreign core %d: %v (threads are pinned shard-local)", dst, ndst, err))
		}
	})
}

// FlushLanes absorbs every per-shard tracer lane into the parent trace,
// in shard order — the deterministic merge the epoch barrier hook runs.
// A no-op without sharded observability.
func (m *Machine) FlushLanes() {
	for _, lane := range m.lanes {
		m.parentTrace.AbsorbFrom(lane)
	}
}

// observeSharded wires per-shard tracer lanes: every core records into its
// group's lane, per-shard sim probes feed the lanes, and the engine's
// barrier hook merges them into ctx.Trace in shard order at every epoch.
func (m *Machine) observeSharded(ctx *obs.Context) {
	m.parentTrace = ctx.Trace
	m.lanes = make([]*obs.Tracer, m.Eng.Shards())
	laneCtx := make([]*obs.Context, m.Eng.Shards())
	for g := range m.lanes {
		m.lanes[g] = ctx.Trace.NewLane()
		laneCtx[g] = &obs.Context{Trace: m.lanes[g], Metrics: ctx.Metrics}
	}
	// Shard workers add to the same handle atomics, so metrics need no
	// per-shard lane.
	m.attachCores(ctx, laneCtx)
	for g := 0; g < m.Eng.Shards(); g++ {
		m.Eng.Shard(g).SetProbe(obs.NewSimProbe(m.lanes[g], ctx.Metrics, obs.Tier2Pid))
	}
	m.Eng.SetBarrierHook(m.FlushLanes)
}

// detachSharded undoes observeSharded after a final lane flush.
func (m *Machine) detachSharded() {
	m.FlushLanes()
	for g := 0; g < m.Eng.Shards(); g++ {
		m.Eng.Shard(g).SetProbe(nil)
	}
	m.Eng.SetBarrierHook(nil)
	m.lanes, m.parentTrace = nil, nil
}
