package core

import (
	"fmt"
	"sort"

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
	// delivering is true while the delivery microcode + handler run.
	delivering bool

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

	// Delivered counts user-level deliveries by mechanism.
	Delivered map[Mechanism]uint64

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

	// Obs, when non-nil, receives trace spans and live metrics for this
	// core (set by Machine.Observe, which also resolves met).
	Obs *obs.Context
	met vcoreMetrics

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
		if v.Obs != nil {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "upid.ack", "notify", uint64(now), nil)
			v.met.upidAcks.Add(1)
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
	if v.Obs != nil {
		if v.Obs.Trace.Enabled() {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "forward.fast", "forward", uint64(now),
				map[string]any{"vector": vector})
		}
		v.met.forwardedFast.Add(1)
	}
	v.post(now, uintr.Vector(vector&63), ForwardedIntr)
}

// RaiseForwardedSlow implements apic.Sink: the target thread is off-core;
// the kernel captures the vector into the DUPID.
func (v *VCore) RaiseForwardedSlow(now sim.Time, vector uint8) {
	if v.Obs != nil {
		if v.Obs.Trace.Enabled() {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "forward.slow", "forward", uint64(now),
				map[string]any{"vector": vector})
		}
		v.met.forwardedSlow.Add(1)
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
		if v.Obs != nil {
			v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "kb_timer.trap", "kbtimer", uint64(now), nil)
			v.met.kbtimerTraps.Add(1)
		}
		if v.Check != nil {
			v.Check.KernelIntr(now, v.ID, uint8(vector))
		}
		if v.OnKernelInterrupt != nil {
			v.OnKernelInterrupt(now, uint8(vector))
		}
		return
	}
	if v.Obs != nil {
		v.Obs.Trace.Instant(obs.Tier2Pid, uint32(v.ID), "kb_timer.fire", "kbtimer", uint64(now), nil)
		v.met.kbtimerFires.Add(1)
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
	if v.Obs != nil {
		if v.Obs.Trace.Enabled() {
			v.Obs.Trace.Span(obs.Tier2Pid, uint32(v.ID), "deliver:"+mech.String(), "delivery",
				uint64(now), uint64(now+cost), map[string]any{"vector": uint8(vec)})
		}
		v.met.delivered[mech].Add(1)
		v.met.deliveryCost.Record(uint64(cost))
	}
	if v.Check != nil {
		v.Check.DeliverStart(now, v.ID, vec, mech, cost)
	}
	v.UIF = false // delivery clears the flag until uiret
	v.delivering = true
	v.Sim.After(cost, func(t sim.Time) {
		v.delivering = false
		v.UIF = true // uiret
		if v.Check != nil {
			v.Check.DeliverEnd(t, v.ID, vec, mech)
		}
		if v.Handler != nil {
			v.Handler(t, vec, mech)
		}
		v.tryDeliver(t)
	})
}

// Clui executes the clui instruction: clear UIF, blocking user-interrupt
// delivery (2 cycles, Table 2).
func (v *VCore) Clui() {
	v.Account.Charge(CatWork, CluiCost)
	v.UIF = false
	v.met.clui.Add(1)
}

// Stui executes the stui instruction: set UIF and deliver anything held in
// UIRR (32 cycles, Table 2 — setting the flag re-scans pending vectors).
func (v *VCore) Stui(now sim.Time) {
	v.Account.Charge(CatWork, StuiCost)
	v.UIF = true
	v.met.stui.Add(1)
	v.tryDeliver(now)
}

// Testui reads UIF.
func (v *VCore) Testui() bool { return v.UIF }

// UIRRPending returns the vectors recognised but not yet delivered.
func (v *VCore) UIRRPending() uint64 { return v.uirr }

func highestVector(pir uint64) uintr.Vector {
	for i := 63; i >= 0; i-- {
		if pir&(1<<uint(i)) != 0 {
			return uintr.Vector(i)
		}
	}
	return 0
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
	// per core group, the group width, the modelled inter-group
	// interconnect latency, and the per-shard tracer lanes Observe wires.
	Eng          *shard.Engine
	Buses        []*apic.Bus
	IOAPICs      []*apic.IOAPIC
	groupSize    int
	crossLatency sim.Time
	lanes        []*obs.Tracer
	parentTrace  *obs.Tracer
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
			ID:        id,
			Sim:       kernels[g],
			Costs:     m.Costs,
			IPIMech:   ipiMech,
			UIF:       true,
			Account:   stats.NewCycleAccount(),
			Delivered: make(map[Mechanism]uint64),
			DelivLat:  stats.NewHistogram(),
		}
		l, err := buses[g].NewLocalAPIC(uint32(id), v)
		if err != nil {
			return err
		}
		v.APIC = l
		v.KBT = NewKBTimer(kernels[g])
		v.KBT.Fire = v.kbFire
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
	if src.Obs != nil {
		src.Obs.Trace.Instant(obs.Tier2Pid, uint32(src.ID), "senduipi", "send", uint64(src.Sim.Now()), nil)
		src.met.senduipi.Add(1)
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
	src.Sim.After(delay, func(sim.Time) {
		// ICR written: the message is on the bus.
		if err := src.APIC.SendIPI(ndst, nv); err != nil {
			panic(fmt.Sprintf("core: UIPI to unknown APIC %d", ndst))
		}
	})
	return nil
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
// a named thread under Tier2Pid, live counters/spans flow into ctx, and the
// event kernel reports scheduling activity through a sim probe. A nil ctx
// detaches everything.
func (m *Machine) Observe(ctx *obs.Context) {
	if ctx == nil {
		if m.Eng != nil {
			m.detachSharded()
		}
		m.attachCores(nil, nil)
		m.Sim.SetProbe(nil)
		return
	}
	if m.Eng != nil && m.Eng.Shards() > 1 {
		// Sharded machines record through per-shard lanes merged at epoch
		// barriers so the trace order is deterministic at any worker count.
		m.observeSharded(ctx)
		return
	}
	m.attachCores(ctx, nil)
	m.Sim.SetProbe(obs.NewSimProbe(ctx.Trace, ctx.Metrics, obs.Tier2Pid))
}

// attachCores points every core at ctx, or at its shard's lane context
// when lanes is non-nil, and resolves the core's metric handles against
// ctx's registry once, so no event builds a metric name. Trace threads
// are named on ctx's tracer. A nil ctx detaches every core, handles
// included.
func (m *Machine) attachCores(ctx *obs.Context, lanes []*obs.Context) {
	tr := ctx.TracerOrNil()
	tr.NameProcess(obs.Tier2Pid, "tier2-machine")
	for _, v := range m.Cores {
		v.Obs = ctx
		if lanes != nil {
			v.Obs = lanes[m.ShardOf(v.ID)]
		}
		v.met = resolveVCoreMetrics(ctx.RegistryOrNil(), v.ID)
		if tr.Enabled() {
			tr.NameThread(obs.Tier2Pid, uint32(v.ID), fmt.Sprintf("vcore%d", v.ID))
		}
	}
}

// vcoreMetrics holds one core's "vcore<ID>/" metric handles. The zero
// value (every handle nil) records nothing.
type vcoreMetrics struct {
	upidAcks, forwardedFast, forwardedSlow *obs.Counter
	kbtimerTraps, kbtimerFires             *obs.Counter
	clui, stui, senduipi                   *obs.Counter
	delivered                              [ForwardedIntr + 1]*obs.Counter // by Mechanism
	deliveryCost                           *obs.Histogram
}

func resolveVCoreMetrics(reg *obs.Registry, id int) vcoreMetrics {
	if reg == nil {
		return vcoreMetrics{}
	}
	ns := fmt.Sprintf("vcore%d/", id)
	vm := vcoreMetrics{
		upidAcks:      reg.CounterHandle(ns + "upid_acks"),
		forwardedFast: reg.CounterHandle(ns + "forwarded_fast"),
		forwardedSlow: reg.CounterHandle(ns + "forwarded_slow"),
		kbtimerTraps:  reg.CounterHandle(ns + "kbtimer_traps"),
		kbtimerFires:  reg.CounterHandle(ns + "kbtimer_fires"),
		clui:          reg.CounterHandle(ns + "clui"),
		stui:          reg.CounterHandle(ns + "stui"),
		senduipi:      reg.CounterHandle(ns + "senduipi"),
		deliveryCost:  reg.HistogramHandle(ns + "delivery_cost"),
	}
	for mech := range vm.delivered {
		vm.delivered[mech] = reg.CounterHandle(ns + "delivered/" + Mechanism(mech).String())
	}
	return vm
}

// SnapshotMetrics writes each core's end-of-run accounting into reg:
// per-category cycle totals under "vcore<ID>/cycles/", utilization and
// per-mechanism delivered totals as gauges. Call once when the run ends —
// cycle accounts are imported additively, so repeated snapshots of the same
// account would double-count.
func (m *Machine) SnapshotMetrics(reg *obs.Registry) {
	// Absorb any trace events recorded after the last epoch barrier (the
	// post-loop clock-advance tail of a sharded run).
	m.FlushLanes()
	now := uint64(m.Sim.Now())
	for _, v := range m.Cores {
		ns := fmt.Sprintf("vcore%d/", v.ID)
		reg.AddCycleAccount(ns+"cycles/", v.Account)
		reg.SetGauge(ns+"utilization", v.Busy.Utilization(now))
		reg.MergeHistogram(obs.AggTier2DeliveryWait, v.DelivLat)
		mechs := make([]Mechanism, 0, len(v.Delivered))
		for mech := range v.Delivered {
			mechs = append(mechs, mech)
		}
		sort.Slice(mechs, func(i, j int) bool { return mechs[i] < mechs[j] })
		for _, mech := range mechs {
			reg.SetGauge(ns+"delivered_total/"+mech.String(), float64(v.Delivered[mech]))
		}
	}
}
