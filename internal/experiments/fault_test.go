package experiments

import (
	"fmt"
	"testing"

	"xui/internal/check"
	"xui/internal/core"
	"xui/internal/cpu"
	"xui/internal/kernel"
	"xui/internal/lpm"
	"xui/internal/netsim"
	"xui/internal/sim"
	"xui/internal/uintr"
	"xui/internal/urt"
)

// FaultClass names one adversarial schedule the fault scenarios impose on
// the experiments rigs — the failure modes the paper reasons about in §4.2
// (misprediction squash of in-flight interrupt microcode), §4.5 (receiver
// descheduled mid-delivery) and §5.4/§6 (wire jitter, ring-full bursts,
// spurious timer fires).
type FaultClass string

const (
	// SquashReinject forces mispredict squashes through in-flight tracked
	// interrupt microcode with re-injection enabled: every interrupt must
	// survive (absorbed; degradation = tier1_reinjections).
	SquashReinject FaultClass = "squash-reinject"
	// SquashNoReinject is the same schedule with the §4.2 re-injection
	// state machine ablated: interrupts are lost, which the checker
	// surfaces as the tier1_lost counter (and would flag as the
	// lost-interrupt invariant were re-injection enabled).
	SquashNoReinject FaultClass = "squash-noreinject"
	// Deschedule takes the receiver off-core at seeded times while senders
	// keep posting: the SN bit must suppress notifications and the kernel
	// slow path must repost on reschedule (absorbed; degradation =
	// reposts/uinv_traps/deschedules).
	Deschedule FaultClass = "deschedule"
	// WireJitter adds seeded latency to every departing notification IPI
	// (absorbed; degradation = jitter_cycles).
	WireJitter FaultClass = "wire-jitter"
	// RingBurst slams packet bursts larger than the NIC ring into an
	// interrupt-driven l3fwd (absorbed; degradation = ring_dropped).
	RingBurst FaultClass = "ring-burst"
	// SpuriousKBT fires the KB_Timer early/spuriously, bypassing the
	// programmed deadline: the timer wheel must pop nothing early and
	// still fire every timer (absorbed; degradation = spurious_fires).
	SpuriousKBT FaultClass = "spurious-kbt"
)

// FaultClasses returns every injectable class, in a fixed order.
func FaultClasses() []FaultClass {
	return []FaultClass{SquashReinject, SquashNoReinject, Deschedule, WireJitter, RingBurst, SpuriousKBT}
}

// FaultResult is the outcome of one injected run.
type FaultResult struct {
	Report      check.Report
	Fingerprint string // deterministic digest: same seed ⇒ identical string
}

// Absorbed reports that every invariant held (the degradation, if any, is
// visible in Report.Counters).
func (r FaultResult) Absorbed() bool { return r.Report.OK() }

// RunFault executes one fault class on an Env checked by a fresh
// collector. Runs are deterministic: the same (class, seed) yields an
// identical Fingerprint and Report.
func RunFault(class FaultClass, seed uint64) (FaultResult, error) {
	e := &Env{Check: check.NewCollector()}
	var fp string
	switch class {
	case SquashReinject:
		fp = e.faultSquash(seed, true)
	case SquashNoReinject:
		fp = e.faultSquash(seed, false)
	case Deschedule:
		fp = e.faultDeschedule(seed)
	case WireJitter:
		fp = e.faultWireJitter(seed)
	case RingBurst:
		fp = e.faultRingBurst(seed)
	case SpuriousKBT:
		fp = e.faultSpuriousKBT(seed)
	default:
		return FaultResult{}, fmt.Errorf("experiments: unknown fault class %q", class)
	}
	return FaultResult{Report: e.Check.Report(), Fingerprint: fp}, nil
}

// faultSquash drives tracked delivery through a mispredict storm on a
// SlowBranchStream receiver. Interrupt arrival times are seeded so the
// microcode is regularly in flight when a branch resolves and squashes it.
func (e *Env) faultSquash(seed uint64, reinject bool) string {
	rng := sim.NewRNG(seed)
	cfg := receiverCfg(cpu.Tracked)
	cfg.TrackedReinject = reinject
	const pairs = 6000
	c, _ := e.NewReceiverConfig(cfg, SlowBranchStream(pairs))
	cc := e.checkCore(c, "inject/squash")
	at := uint64(0)
	const n = 24
	for i := 0; i < n; i++ {
		at += 500 + rng.Uint64()%3000
		c.ScheduleInterrupt(at, cpu.Interrupt{
			Vector: 1, SkipNotification: true, Handler: TinyHandler(), Tag: "inj",
		})
	}
	res := c.Run(2*pairs, 20_000_000)
	cc.FinishCore()
	ctr := e.Check.Report().Counters
	return fmt.Sprintf("cycles=%d prog=%d intr=%d arrived=%d done=%d lost=%d reinj=%d",
		res.Cycles, res.CommittedProgram, len(res.Interrupts),
		ctr["inject/squash/tier1_arrived"], ctr["inject/squash/tier1_completed"],
		ctr["inject/squash/tier1_lost"], ctr["inject/squash/tier1_reinjections"])
}

// faultDeschedule sends UIPIs at a receiver that the kernel repeatedly
// takes off-core mid-stream: SN must suppress notifications and every
// captured interrupt must be reposted on reschedule (§4.5 slow path).
func (e *Env) faultDeschedule(seed uint64) string {
	rng := sim.NewRNG(seed)
	s := sim.New(seed)
	m, err := core.NewMachine(s, 2, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	mc := check.Attach(e.Check, m, "inject/desched")
	k := kernel.New(m)
	recv := k.NewThread()
	delivered := 0
	k.RegisterHandler(recv, func(sim.Time, uintr.Vector, core.Mechanism) { delivered++ })
	k.ScheduleOn(recv, 1)
	idx, err := k.RegisterSender(recv, 3)
	if err != nil {
		panic(err)
	}
	const sends = 120
	at := sim.Time(0)
	for i := 0; i < sends; i++ {
		at += sim.Time(500 + rng.Uint64()%2500)
		s.After(at, func(sim.Time) {
			if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
				panic(err)
			}
		})
	}
	// The fault: five deschedule/reschedule pulses at seeded times, each
	// landing somewhere inside the send stream (including mid-delivery).
	for i := 0; i < 5; i++ {
		off := sim.Time(rng.Uint64() % uint64(at))
		gap := sim.Time(2000 + rng.Uint64()%20000)
		s.After(off, func(sim.Time) { k.Deschedule(recv) })
		s.After(off+gap, func(sim.Time) { k.ScheduleOn(recv, 1) })
	}
	s.Run()
	mc.Finish()
	return fmt.Sprintf("delivered=%d %s", delivered, mc.Fingerprint())
}

// faultWireJitter adds seeded latency to every notification IPI departure.
func (e *Env) faultWireJitter(seed uint64) string {
	rng := sim.NewRNG(seed)
	s := sim.New(seed)
	m, err := core.NewMachine(s, 2, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	mc := check.Attach(e.Check, m, "inject/jitter")
	var jitterTotal uint64
	m.ExtraSendLatency = func(int) sim.Time {
		j := rng.Uint64() % 800
		jitterTotal += j
		return sim.Time(j)
	}
	k := kernel.New(m)
	recv := k.NewThread()
	delivered := 0
	k.RegisterHandler(recv, func(sim.Time, uintr.Vector, core.Mechanism) { delivered++ })
	k.ScheduleOn(recv, 1)
	idx, err := k.RegisterSender(recv, 5)
	if err != nil {
		panic(err)
	}
	const sends = 150
	at := sim.Time(0)
	for i := 0; i < sends; i++ {
		at += sim.Time(400 + rng.Uint64()%2000)
		s.After(at, func(sim.Time) {
			if err := m.SendUIPI(0, k.UITT(), idx); err != nil {
				panic(err)
			}
		})
	}
	s.Run()
	mc.Finish()
	e.Check.Count("inject/jitter_cycles", jitterTotal)
	return fmt.Sprintf("delivered=%d jitter=%d %s", delivered, jitterTotal, mc.Fingerprint())
}

// faultRingBurst drives an interrupt-mode l3fwd with a steady load plus
// seeded bursts far beyond the RingSize descriptor ring.
func (e *Env) faultRingBurst(seed uint64) string {
	rng := sim.NewRNG(seed)
	s := sim.New(seed)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	mc := check.Attach(e.Check, m, "inject/burst")
	table := lpm.GenerateTable(2000, seed)
	nic := netsim.NewNIC(s, 0)
	l3, err := netsim.NewL3Fwd(s, table, []*netsim.NIC{nic}, m.Cores[0], netsim.InterruptMode)
	if err != nil {
		panic(err)
	}
	l3.RouteInterrupts(m.IOAPIC, 0x30)
	gen := netsim.StartGenerator(s, nic, 2000, seed+1)
	// The fault: four bursts, each 3× the ring, at seeded instants.
	var id uint64 = 1 << 32
	for i := 0; i < 4; i++ {
		off := sim.Time(100_000 + rng.Uint64()%1_500_000)
		s.After(off, func(now sim.Time) {
			for j := 0; j < 3*netsim.RingSize; j++ {
				id++
				nic.Inject(netsim.Packet{ID: id, Arrived: now, DstIP: uint32(rng.Uint64())})
			}
		})
	}
	s.RunUntil(2_000_000)
	gen.Stop()
	l3.Stop()
	s.Run()
	mc.Finish()
	e.Check.Count("inject/ring_dropped", nic.Dropped)
	if nic.Dropped == 0 {
		e.Check.Violate("injection-ineffective", s.Now(), "inject/burst",
			"burst fault injected but the NIC dropped nothing")
	}
	return fmt.Sprintf("fwd=%d drop=%d recv=%d %s", l3.Forwarded, nic.Dropped, nic.Received, mc.Fingerprint())
}

// faultSpuriousKBT arms a timer wheel and fires the KB_Timer spuriously at
// seeded times that do not match any programmed deadline.
func (e *Env) faultSpuriousKBT(seed uint64) string {
	rng := sim.NewRNG(seed)
	s := sim.New(seed)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	mc := check.Attach(e.Check, m, "inject/kbt")
	k := kernel.New(m)
	th := k.NewThread()
	var w *urt.TimerWheel
	k.RegisterHandler(th, func(now sim.Time, _ uintr.Vector, _ core.Mechanism) {
		w.HandleExpiry(now)
	})
	k.ScheduleOn(th, 0)
	v := m.Cores[0]
	v.KBT.Enable(3)
	w, err = urt.NewTimerWheel(s, v.KBT)
	if err != nil {
		panic(err)
	}
	check.AttachWheel(e.Check, w, "inject/kbt/wheel")
	const timers = 40
	fired := 0
	for i := 0; i < timers; i++ {
		w.After(sim.Time(1000+rng.Uint64()%400_000), func(sim.Time) { fired++ })
	}
	// The fault: spurious hardware fires at seeded instants, bypassing the
	// programmed deadline (and the KBTimer's own Fired accounting).
	const spurious = 8
	for i := 0; i < spurious; i++ {
		off := sim.Time(500 + rng.Uint64()%400_000)
		s.After(off, func(now sim.Time) { v.KBT.Fire(now, 3) })
	}
	s.Run()
	mc.Finish()
	e.Check.Count("inject/spurious_fires", spurious)
	if fired != timers {
		e.Check.Violate("wheel-armed", s.Now(), "inject/kbt",
			"%d of %d software timers fired under spurious interrupts", fired, timers)
	}
	return fmt.Sprintf("fired=%d wheelFired=%d %s", fired, w.Fired, mc.Fingerprint())
}

// TestFaultClasses drives every injectable fault and asserts that each is
// either absorbed (invariants hold, degradation visible under a named
// counter) or detected by the expected invariant, and that its seed-42
// fingerprint is the one pinned below.
func TestFaultClasses(t *testing.T) {
	cases := []struct {
		class    FaultClass
		absorbed bool
		// counters that must be nonzero (degradation visibility) or zero.
		nonzero []string
		zero    []string
		// fingerprint is the seed-42 Fingerprint, recorded when the
		// scenarios lived in internal/check with their own rig copies.
		fingerprint string
	}{
		{
			class:       SquashReinject,
			absorbed:    true,
			nonzero:     []string{"inject/squash/tier1_reinjections", "inject/squash/tier1_completed"},
			zero:        []string{"inject/squash/tier1_lost"},
			fingerprint: "cycles=599376 prog=12000 intr=24 arrived=24 done=24 lost=0 reinj=10",
		},
		{
			// The §4.2 ablation: with re-injection off, squashed interrupt
			// microcode loses the interrupt. That is expected degradation
			// (tier1_lost), not a model bug, so no invariant fires.
			class:       SquashNoReinject,
			absorbed:    true,
			nonzero:     []string{"inject/squash/tier1_lost"},
			fingerprint: "cycles=598564 prog=12000 intr=24 arrived=24 done=16 lost=8 reinj=0",
		},
		{
			class:    Deschedule,
			absorbed: true,
			nonzero: []string{
				"inject/desched/deschedules",
				"inject/desched/reposts",
				"inject/desched/delivered",
			},
			fingerprint: "delivered=104 fresh=105 coal=15 notif=103 acks=105 traps=2 reposts=4 posted=105 merged=0 delivered=105 t=212814",
		},
		{
			class:       WireJitter,
			absorbed:    true,
			nonzero:     []string{"inject/jitter_cycles", "inject/jitter/delivered"},
			fingerprint: "delivered=128 jitter=52130 fresh=128 coal=22 notif=128 acks=128 traps=0 reposts=0 posted=128 merged=0 delivered=128 t=209450",
		},
		{
			class:       RingBurst,
			absorbed:    true,
			nonzero:     []string{"inject/ring_dropped", "inject/burst/delivered"},
			fingerprint: "fwd=3532 drop=9739 recv=3532 fresh=0 coal=0 notif=0 acks=0 traps=0 reposts=0 posted=108 merged=0 delivered=108 t=2000491",
		},
		{
			class:       SpuriousKBT,
			absorbed:    true,
			nonzero:     []string{"inject/spurious_fires", "inject/kbt/delivered"},
			fingerprint: "fired=40 wheelFired=40 fresh=0 coal=0 notif=0 acks=0 traps=0 reposts=0 posted=48 merged=0 delivered=48 t=357003",
		},
	}
	if len(cases) != len(FaultClasses()) {
		t.Fatalf("test covers %d fault classes, FaultClasses has %d", len(cases), len(FaultClasses()))
	}
	for _, tc := range cases {
		t.Run(string(tc.class), func(t *testing.T) {
			res, err := RunFault(tc.class, 42)
			if err != nil {
				t.Fatal(err)
			}
			if res.Absorbed() != tc.absorbed {
				t.Errorf("absorbed = %v, want %v; report:\n%s", res.Absorbed(), tc.absorbed, res.Report)
			}
			if res.Report.Checks == 0 {
				t.Error("no invariant evaluations performed — checker not wired")
			}
			for _, name := range tc.nonzero {
				if res.Report.Counters[name] == 0 {
					t.Errorf("counter %s = 0, want > 0; counters: %v", name, res.Report.Counters)
				}
			}
			for _, name := range tc.zero {
				if got := res.Report.Counters[name]; got != 0 {
					t.Errorf("counter %s = %d, want 0", name, got)
				}
			}
			if res.Fingerprint != tc.fingerprint {
				t.Errorf("fingerprint:\n  got  %s\n  want %s", res.Fingerprint, tc.fingerprint)
			}
		})
	}
}

// TestFaultDeterminism: same (class, seed) must give a byte-identical
// fingerprint and report across runs. Each RunFault builds its own Env
// and collector, so the classes run in parallel.
func TestFaultDeterminism(t *testing.T) {
	for _, class := range FaultClasses() {
		t.Run(string(class), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []uint64{1, 7, 12345} {
				a, err := RunFault(class, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := RunFault(class, seed)
				if err != nil {
					t.Fatal(err)
				}
				if a.Fingerprint != b.Fingerprint {
					t.Errorf("seed %d: fingerprints differ:\n  %s\n  %s", seed, a.Fingerprint, b.Fingerprint)
				}
				if a.Report.Violations != b.Report.Violations || a.Report.Checks != b.Report.Checks {
					t.Errorf("seed %d: reports differ: %d/%d checks, %d/%d violations",
						seed, a.Report.Checks, b.Report.Checks, a.Report.Violations, b.Report.Violations)
				}
			}
		})
	}
}
