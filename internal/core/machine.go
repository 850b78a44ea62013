package core

import (
	"fmt"
	"math/bits"

	"xui/internal/apic"
	"xui/internal/obs"
	"xui/internal/shard"
	"xui/internal/sim"
	"xui/internal/stats"
	"xui/internal/uintr"
)

// Accounting category names used by VCore. Experiments read these out of
// the per-core CycleAccount.
const (
	CatNotify = "notify" // receiver-side interrupt delivery cost
	CatSend   = "send"   // sender-side senduipi cost
	CatWork   = "work"   // workload cycles (charged by experiments)
	CatPoll   = "poll"   // polling cycles (charged by experiments)
)

// UINV is the conventional notification vector reserved for UIPIs in the
// machine model (matching the kernel's choice of a single system-wide
// notification vector).
const UINV uint8 = 0xEC

// VCore is the Tier-2 (event-level) model of one hardware thread: it routes
// interrupts arriving at its local APIC to the running user context,
// charges calibrated per-event costs, and exposes the xUI devices (KB_Timer,
// forwarding) to the software models above it.
type VCore struct {
	ID    int
	Sim   *sim.Simulator
	APIC  *apic.LocalAPIC
	KBT   *KBTimer
	Costs Costs

	// IPIMech selects how user IPIs are delivered on this machine: UIPI
	// (flush-based) or TrackedIPI (xUI).
	IPIMech Mechanism

	// UPID of the thread currently running in user mode, nil when the
	// core is in the kernel or idle.
	UPID *uintr.UPID
	// UIF is the running context's user-interrupt flag. Clearing it (clui,
	// or an in-progress delivery) holds recognised interrupts in UIRR
	// until it is set again.
	UIF bool
	// uirr is the user interrupt request register: vectors recognised but
	// not yet delivered. Both UIPI notification processing and interrupt
	// forwarding post here (§3.3, §4.5).
	uirr uint64
	// uirrMech remembers which mechanism posted each vector, so the
	// delivery charge matches the path taken.
	uirrMech [64]Mechanism
	// delivering is true while the delivery microcode + handler run. A
	// core runs one delivery at a time, so the vector and mechanism of
	// that delivery live here, read back by finish when it completes.
	delivering bool
	delivVec   uintr.Vector
	delivMech  Mechanism
	// finish and sendICR are the core's delivery-complete and ICR-write
	// event handlers, bound once in addCores so scheduling them allocates
	// nothing.
	finish  sim.Handler
	sendICR sim.ArgHandler

	// Handler is the registered user-level interrupt handler; it runs
	// after the delivery cost has elapsed.
	Handler func(now sim.Time, vector uintr.Vector, mech Mechanism)
	// OnKernelInterrupt receives conventional interrupts (not UIPI
	// notifications) and UIPI notifications that miss the running thread
	// — the kernel slow path.
	OnKernelInterrupt func(now sim.Time, vector uint8)

	// Account accumulates per-category cycles; Busy tracks utilization.
	Account *stats.CycleAccount
	Busy    stats.Busy

	// Delivered counts user-level deliveries, indexed by mechanism.
	Delivered [ForwardedIntr + 1]uint64

	// DelivLat is the always-on recognise→delivery-complete latency
	// histogram: cycles from a vector first entering UIRR to its delivery
	// routine finishing, including time held by a cleared UIF and queueing
	// behind other deliveries — the distribution behind the Fig. 7/8 tail
	// story. Always recorded (independent of Obs) so reports carry tails
	// even when tracing is off.
	DelivLat *stats.Histogram
	// postedAt remembers when each UIRR vector was first recognised;
	// coalesced posts keep the oldest timestamp so the histogram reflects
	// the longest-waiting notification.
	postedAt [64]sim.Time

	// Obs, when non-nil, receives trace spans for this core (set by
	// Machine.Observe, which also resolves met's registry handles).
	Obs *obs.Context
	met vcoreMeters

	// Check, when non-nil, receives protocol events for invariant checking
	// (set by Machine.SetCheck).
	Check CheckProbe
}

// RaiseInterrupt implements apic.Sink for conventional vectors.
func (v *VCore) RaiseInterrupt(now sim.Time, vector uint8) {
	if vector == UINV && v.UPID != nil && v.UPID.Pending() {
		// Notification processing against the running thread's UPID:
		// recognition copies PIR into UIRR regardless of UIF; delivery
		// happens when UIF allows (§3.3).
		pir := v.UPID.Acknowledge()
		v.met.n[meterUPIDAcks]++
		if v.Obs != nil {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "upid.ack", "notify", uint64(now), nil)
		}
		if v.Check != nil {
			v.Check.NotifyAck(now, v.ID, pir)
		}
		for pir != 0 {
			vec := highestVector(pir)
			pir &^= 1 << vec
			v.post(now, vec, v.IPIMech)
		}
		return
	}
	// Slow path / ordinary kernel interrupt.
	if v.Check != nil {
		v.Check.KernelIntr(now, v.ID, vector)
	}
	if v.OnKernelInterrupt != nil {
		v.OnKernelInterrupt(now, vector)
	}
}

// RaiseForwarded implements apic.Sink: the forwarding fast path goes
// straight to user level with the delivery-only cost. The APIC sets the
// UIRR bit; if UIF is clear the vector is held until it is set again
// (§4.5 — the UPID is never touched, no kernel involvement).
func (v *VCore) RaiseForwarded(now sim.Time, vector uint8) {
	v.met.n[meterForwardedFast]++
	if v.Obs != nil && v.Obs.Trace.Enabled() {
		v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "forward.fast", "forward", uint64(now),
			map[string]any{"vector": vector})
	}
	v.post(now, uintr.Vector(vector&63), ForwardedIntr)
}

// RaiseForwardedSlow implements apic.Sink: the target thread is off-core;
// the kernel captures the vector into the DUPID.
func (v *VCore) RaiseForwardedSlow(now sim.Time, vector uint8) {
	v.met.n[meterForwardedSlow]++
	if v.Obs != nil && v.Obs.Trace.Enabled() {
		v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "forward.slow", "forward", uint64(now),
			map[string]any{"vector": vector})
	}
	if v.Check != nil {
		v.Check.KernelIntr(now, v.ID, vector)
	}
	if v.OnKernelInterrupt != nil {
		v.OnKernelInterrupt(now, vector)
	}
}

// kbFire handles a KB_Timer expiry: user mode → user delivery at the
// delivery-only cost; kernel mode (no user context installed) → trap
// (§4.3).
func (v *VCore) kbFire(now sim.Time, vector uintr.Vector) {
	if v.UPID == nil {
		v.met.n[meterKBTimerTraps]++
		if v.Obs != nil {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "kb_timer.trap", "kbtimer", uint64(now), nil)
		}
		if v.Check != nil {
			v.Check.KernelIntr(now, v.ID, uint8(vector))
		}
		if v.OnKernelInterrupt != nil {
			v.OnKernelInterrupt(now, uint8(vector))
		}
		return
	}
	v.met.n[meterKBTimerFires]++
	if v.Obs != nil {
		v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "kb_timer.fire", "kbtimer", uint64(now), nil)
	}
	v.post(now, vector, KBTimerIntr)
}

// post recognises a user vector into UIRR and attempts delivery.
func (v *VCore) post(now sim.Time, vector uintr.Vector, mech Mechanism) {
	merged := v.uirr&(1<<vector) != 0
	v.uirr |= 1 << vector
	v.uirrMech[vector] = mech
	if !merged {
		v.postedAt[vector] = now
	}
	if v.Check != nil {
		v.Check.Posted(now, v.ID, vector, mech, merged)
	}
	v.tryDeliver(now)
}

// tryDeliver starts delivery of the highest-priority recognised vector if
// the core can take a user interrupt now.
//
//xui:noalloc
func (v *VCore) tryDeliver(now sim.Time) {
	if v.uirr == 0 || !v.UIF || v.delivering {
		return
	}
	vec := highestVector(v.uirr)
	v.uirr &^= 1 << vec
	mech := v.uirrMech[vec]
	cost := v.Costs.Receiver(mech)
	v.Account.Charge(CatNotify, uint64(cost))
	v.Delivered[mech]++
	v.DelivLat.Record(uint64(now + cost - v.postedAt[vec]))
	if v.Obs != nil && v.Obs.Trace.Enabled() {
		v.Obs.Trace.Span(obs.Tier2Pid, uint32(v.ID), "deliver:"+mech.String(), "delivery", //xui:alloc span name, only with a tracer attached
			uint64(now), uint64(now+cost), map[string]any{"vector": uint8(vec)})
	}
	if v.Check != nil {
		v.Check.DeliverStart(now, v.ID, vec, mech, cost)
	}
	v.UIF = false // delivery clears the flag until uiret
	v.delivering = true
	v.delivVec, v.delivMech = vec, mech
	v.Sim.After(cost, v.finish)
}

// finishDelivery completes the delivery tryDeliver started: uiret sets
// UIF again, the user handler runs, and the next held vector (if any)
// starts.
func (v *VCore) finishDelivery(t sim.Time) {
	vec, mech := v.delivVec, v.delivMech
	v.delivering = false
	v.UIF = true // uiret
	if v.Check != nil {
		v.Check.DeliverEnd(t, v.ID, vec, mech)
	}
	if v.Handler != nil {
		v.Handler(t, vec, mech)
	}
	v.tryDeliver(t)
}

// Clui executes the clui instruction: clear UIF, blocking user-interrupt
// delivery (2 cycles, Table 2).
func (v *VCore) Clui() {
	v.Account.Charge(CatWork, CluiCost)
	v.UIF = false
	v.met.n[meterClui]++
}

// Stui executes the stui instruction: set UIF and deliver anything held in
// UIRR (32 cycles, Table 2 — setting the flag re-scans pending vectors).
func (v *VCore) Stui(now sim.Time) {
	v.Account.Charge(CatWork, StuiCost)
	v.UIF = true
	v.met.n[meterStui]++
	v.tryDeliver(now)
}

// Testui reads UIF.
func (v *VCore) Testui() bool { return v.UIF }

// UIRRPending returns the vectors recognised but not yet delivered.
func (v *VCore) UIRRPending() uint64 { return v.uirr }

// highestVector returns the highest set bit of pir, or 0 when pir is 0.
func highestVector(pir uint64) uintr.Vector {
	if pir == 0 {
		return 0
	}
	return uintr.Vector(bits.Len64(pir) - 1)
}

// Machine assembles the Tier-2 hardware: cores with local APICs and
// KB_Timers on a shared interrupt bus, plus an IOAPIC for devices.
type Machine struct {
	Sim    *sim.Simulator
	Bus    *apic.Bus
	IOAPIC *apic.IOAPIC
	Cores  []*VCore
	Costs  Costs

	// Check, when non-nil, receives protocol events for invariant checking
	// (set by SetCheck, which also attaches it to every core).
	Check CheckProbe
	// ExtraSendLatency, when non-nil, adds wire latency to each departing
	// notification IPI — the fault injector's wire-jitter knob.
	ExtraSendLatency func(sender int) sim.Time

	// Sharded-machine state (see shard.go; all nil/zero on machines built
	// with NewMachine): the epoch-synchronizing engine, one bus and IOAPIC
	// per core group, the group width, and the modelled inter-group
	// interconnect latency.
	Eng          *shard.Engine
	Buses        []*apic.Bus
	IOAPICs      []*apic.IOAPIC
	groupSize    int
	crossLatency sim.Time

	// simProbes are the event-kernel probes Observe attached, one per
	// simulator; SnapshotMetrics flushes their counts.
	simProbes []*obs.SimProbe
}

// IcrOffset is when, within a senduipi execution, the ICR write completes
// and the IPI message departs (calibrated from the Tier-1 sender model:
// ≈367 cycles into the ≈383-cycle instruction, so arrival lands at the
// paper's ≈380 cycles including the bus hop).
const IcrOffset sim.Time = 367

// NewMachine builds an n-core machine delivering user IPIs with ipiMech
// (UIPI or TrackedIPI).
func NewMachine(s *sim.Simulator, n int, ipiMech Mechanism) (*Machine, error) {
	m := &Machine{
		Sim:   s,
		Bus:   apic.NewBus(s),
		Costs: DefaultCosts(),
	}
	m.IOAPIC = apic.NewIOAPIC(m.Bus)
	if err := m.addCores(ipiMech, n, []*sim.Simulator{s}, []*apic.Bus{m.Bus}); err != nil {
		return nil, err
	}
	return m, nil
}

// addCores checks ipiMech, then builds perGroup cores for each group g
// (kernel kernels[g], interrupt bus buses[g]) with global, contiguous IDs:
// every core gets a local APIC on its group's bus and a KB_Timer on its
// group's kernel.
func (m *Machine) addCores(ipiMech Mechanism, perGroup int, kernels []*sim.Simulator, buses []*apic.Bus) error {
	if ipiMech != UIPI && ipiMech != TrackedIPI {
		return fmt.Errorf("core: IPI mechanism must be UIPI or TrackedIPI, got %v", ipiMech)
	}
	for id := 0; id < len(buses)*perGroup; id++ {
		g := id / perGroup
		v := &VCore{
			ID:       id,
			Sim:      kernels[g],
			Costs:    m.Costs,
			IPIMech:  ipiMech,
			UIF:      true,
			Account:  stats.NewCycleAccount(),
			DelivLat: stats.NewHistogram(),
		}
		l, err := buses[g].NewLocalAPIC(uint32(id), v)
		if err != nil {
			return err
		}
		v.APIC = l
		v.KBT = NewKBTimer(kernels[g])
		v.KBT.Fire = v.kbFire
		v.finish = v.finishDelivery
		v.sendICR = v.writeICR
		m.Cores = append(m.Cores, v)
	}
	return nil
}

// SendUIPI models a senduipi executed on the sending core against a UITT
// entry: the sender is busy for the senduipi cost, and if the protocol
// calls for a notification the IPI departs at the ICR-write point. On a
// sharded machine, a target UPID homed on another shard routes the whole
// posting protocol there (crossSendUIPI); all timing runs on the sending
// core's own kernel either way.
func (m *Machine) SendUIPI(sender int, uitt *uintr.UITT, idx int) error {
	src := m.Cores[sender]
	src.Account.Charge(CatSend, uint64(m.Costs.Sender(UIPI)))
	src.met.n[meterSenduipi]++
	if src.Obs != nil {
		src.Obs.Trace.Instant(obs.Tier2Pid, uint32(src.ID), "senduipi", "send", uint64(src.Sim.Now()), nil)
	}
	if m.Eng != nil {
		entry, err := uitt.Lookup(idx)
		if err != nil {
			return err
		}
		if dst := int(entry.UPID.Home); dst != m.ShardOf(sender) {
			m.crossSendUIPI(sender, uitt, idx, dst)
			return nil
		}
	}
	var entry uintr.UITTEntry
	premerged := false
	if m.Check != nil {
		// Snapshot the target before the post so the probe can tell a fresh
		// PIR bit from a coalesced one.
		entry, _ = uitt.Lookup(idx)
		premerged = entry.UPID != nil && entry.UPID.PIR&(1<<entry.Vector) != 0
	}
	notify, ndst, nv, err := uitt.Senduipi(idx)
	if err != nil {
		return err
	}
	if m.Check != nil {
		m.Check.Senduipi(src.Sim.Now(), sender, idx, entry.UPID, entry.Vector, notify, premerged)
	}
	if !notify {
		return nil
	}
	delay := IcrOffset
	if m.ExtraSendLatency != nil {
		delay += m.ExtraSendLatency(sender)
	}
	src.Sim.AfterArg(delay, src.sendICR, uint64(ndst)<<8|uint64(nv))
	return nil
}

// writeICR is the ICR-write point of a senduipi: the notification IPI
// (destination APIC ID and vector packed as ndst<<8|nv) goes on the bus.
func (v *VCore) writeICR(_ sim.Time, arg uint64) {
	ndst, nv := uint32(arg>>8), uint8(arg)
	if err := v.APIC.SendIPI(ndst, nv); err != nil {
		panic(fmt.Sprintf("core: UIPI to unknown APIC %d", ndst))
	}
}

// Quiescent reports whether the machine is at rest and unwatched: no
// core has UIF clear, is mid-delivery or holds a recognised or posted
// vector, and no tracer, checker or fault hook is attached. Pending
// events are the caller's to account for. A model that finds the machine
// quiescent with only its own events pending may jump over time it knows
// would repeat: no per-event record is lost, because nothing records per
// event. A metrics registry does not count as watching: the machine's
// meters are plain state, which the jump repeats through CopyMeters,
// MetersSameStep and RepeatMeters. Sharded machines are never quiescent.
//
//xui:noalloc
func (m *Machine) Quiescent() bool {
	if m.Eng != nil || m.Check != nil || m.ExtraSendLatency != nil {
		return false
	}
	for _, v := range m.Cores {
		if (v.Obs != nil && v.Obs.Trace.Enabled()) || v.Check != nil || !v.UIF || v.delivering || v.uirr != 0 ||
			(v.UPID != nil && v.UPID.Pending()) {
			return false
		}
	}
	return true
}

// DeliveryLatency merges every core's recognise→delivery-complete
// histogram into one machine-wide distribution. Merging in core order over
// order-independent histogram state makes the result deterministic for a
// given simulated run regardless of host scheduling.
func (m *Machine) DeliveryLatency() *stats.Histogram {
	h := stats.NewHistogram()
	for _, v := range m.Cores {
		h.Merge(v.DelivLat)
	}
	return h
}

// Observe attaches an observability context to the machine: every core gets
// a named thread under Tier2Pid, spans flow into ctx's tracer, and each
// event kernel (one per shard) reports scheduling activity through its
// own sim probe. Metrics are counted on the machine and reach ctx's
// registry when they are flushed: by SnapshotMetrics, or by the next
// Observe call, which flushes into the registry attached before it. A nil
// ctx detaches everything.
func (m *Machine) Observe(ctx *obs.Context) {
	m.flushMeters()
	m.attachCores(ctx)
	m.simProbes = nil
	for g := 0; g < m.Groups(); g++ {
		k := m.Sim
		if m.Eng != nil {
			k = m.Eng.Shard(g)
		}
		if ctx == nil {
			k.SetProbe(nil)
			continue
		}
		p := obs.NewSimProbe(ctx.Trace, ctx.Metrics, obs.Tier2Pid)
		m.simProbes = append(m.simProbes, p)
		k.SetProbe(p)
	}
}

// flushMeters moves every sim probe's and every core's unflushed counts
// into the registry they were attached with (nowhere, for a core
// attached to none).
func (m *Machine) flushMeters() {
	for _, p := range m.simProbes {
		p.Flush()
	}
	for _, v := range m.Cores {
		v.flushMeters()
	}
}

// attachCores points every core at ctx and resolves the core's metric
// handles against ctx's registry once, so no flush builds a metric name.
// Trace threads are named on ctx's tracer. A nil ctx detaches every core,
// handles included.
func (m *Machine) attachCores(ctx *obs.Context) {
	tr := ctx.TracerOrNil()
	tr.NameProcess(obs.Tier2Pid, "tier2-machine")
	for _, v := range m.Cores {
		v.Obs = ctx
		v.met.resolve(ctx.RegistryOrNil(), v.ID)
		if tr.Enabled() {
			tr.NameThread(obs.Tier2Pid, uint32(v.ID), fmt.Sprintf("vcore%d", v.ID))
		}
	}
}

// The events a core meters per event, indices into vcoreMeters.n, and
// their names under "vcore<ID>/".
const (
	meterUPIDAcks = iota
	meterForwardedFast
	meterForwardedSlow
	meterKBTimerTraps
	meterKBTimerFires
	meterClui
	meterStui
	meterSenduipi
	numMeters
)

var meterNames = [numMeters]string{
	"upid_acks", "forwarded_fast", "forwarded_slow", "kbtimer_traps",
	"kbtimer_fires", "clui", "stui", "senduipi",
}

// vcoreMeters is one core's metering: plain event counts since the last
// flush, and the "vcore<ID>/" handles a flush adds them to (all nil while
// no registry is attached). A core is only ever touched by its own
// kernel's goroutine, so counting takes no atomic. delivered/<mech> and
// delivery_cost are not counted at all: a flush derives them from
// Delivered, which the core keeps anyway, less base, its value at the
// last flush, each delivery costing its mechanism's fixed receiver cost.
type vcoreMeters struct {
	n    [numMeters]uint64
	base [ForwardedIntr + 1]uint64

	counters     [numMeters]*obs.Counter
	delivered    [ForwardedIntr + 1]*obs.Counter // by Mechanism
	deliveryCost *obs.Histogram
}

// resolve points the meters at reg's "vcore<id>/" names (nil handles for
// a nil reg).
func (mt *vcoreMeters) resolve(reg *obs.Registry, id int) {
	ns := fmt.Sprintf("vcore%d/", id)
	for i, name := range meterNames {
		mt.counters[i] = reg.CounterHandle(ns + name)
	}
	for mech := range mt.delivered {
		mt.delivered[mech] = reg.CounterHandle(ns + "delivered/" + Mechanism(mech).String())
	}
	mt.deliveryCost = reg.HistogramHandle(ns + "delivery_cost")
}

// flushMeters adds the core's counts since the last flush to its
// handles and starts the next count from zero. A count of zero writes
// nothing, so a name the run never touched stays out of the snapshot.
func (v *VCore) flushMeters() {
	mt := &v.met
	for i, n := range mt.n {
		if n != 0 {
			mt.counters[i].Add(n)
		}
	}
	for mech, n := range v.Delivered {
		if d := n - mt.base[mech]; d != 0 {
			mt.delivered[mech].Add(d)
			mt.deliveryCost.RecordN(uint64(v.Costs.Receiver(Mechanism(mech))), d)
		}
	}
	mt.n = [numMeters]uint64{}
	mt.base = v.Delivered
}

// Meters is a copy of a machine's unflushed meters: each sim probe's
// counts and queue depths, and each core's per-event counts. Kept copies
// are the machine's earlier states, the arguments of MetersSameStep and
// RepeatMeters, for a model that jumps over time it knows would repeat
// (fig6's period skip). The zero value is ready for CopyMeters.
type Meters struct {
	sims  []obs.SimCounts
	cores [][numMeters]uint64
}

// CopyMeters copies the machine's unflushed meters into dst, reusing its
// storage.
func (m *Machine) CopyMeters(dst *Meters) {
	if len(dst.sims) != len(m.simProbes) {
		dst.sims = make([]obs.SimCounts, len(m.simProbes))
	}
	for i, p := range m.simProbes {
		p.CopyCounts(&dst.sims[i])
	}
	dst.cores = dst.cores[:0]
	for _, v := range m.Cores {
		dst.cores = append(dst.cores, v.met.n)
	}
}

// MetersSameStep reports whether the machine's meters gained, since their
// earlier state mid, exactly what mid had gained since its earlier state
// old, with no flush in between.
func (m *Machine) MetersSameStep(old, mid *Meters) bool {
	if len(old.sims) != len(m.simProbes) || len(mid.sims) != len(m.simProbes) ||
		len(old.cores) != len(m.Cores) || len(mid.cores) != len(m.Cores) {
		return false
	}
	for i, p := range m.simProbes {
		if !p.SameStep(&old.sims[i], &mid.sims[i]) {
			return false
		}
	}
	for i, v := range m.Cores {
		o, md := &old.cores[i], &mid.cores[i]
		for j, n := range v.met.n {
			if n-md[j] != md[j]-o[j] {
				return false
			}
		}
	}
	return true
}

// RepeatMeters adds to the machine's meters k more times everything they
// gained since their earlier state prev.
func (m *Machine) RepeatMeters(prev *Meters, k uint64) {
	for i, p := range m.simProbes {
		p.Repeat(&prev.sims[i], k)
	}
	for i, v := range m.Cores {
		pc := &prev.cores[i]
		for j, n := range v.met.n {
			v.met.n[j] += k * (n - pc[j])
		}
	}
}

// SnapshotMetrics flushes the machine's meters into the registry they
// were attached with, and writes each core's end-of-run accounting into
// reg: per-category cycle totals under "vcore<ID>/cycles/", utilization
// and per-mechanism delivered totals as gauges. Call once when the run
// ends — cycle accounts are imported additively, so repeated snapshots of
// the same account would double-count.
func (m *Machine) SnapshotMetrics(reg *obs.Registry) {
	m.flushMeters()
	now := uint64(m.Sim.Now())
	for _, v := range m.Cores {
		ns := fmt.Sprintf("vcore%d/", v.ID)
		reg.AddCycleAccount(ns+"cycles/", v.Account)
		reg.SetGauge(ns+"utilization", v.Busy.Utilization(now))
		reg.MergeHistogram(obs.AggTier2DeliveryWait, v.DelivLat)
		for mech, n := range v.Delivered {
			if n != 0 {
				reg.SetGauge(ns+"delivered_total/"+Mechanism(mech).String(), float64(n))
			}
		}
	}
}
