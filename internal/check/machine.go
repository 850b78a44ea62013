package check

import (
	"fmt"
	"math/bits"
	"sync"

	"xui/internal/core"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// MachineChecker replays the UIPI protocol's conservation laws alongside a
// Tier-2 machine. It implements core.CheckProbe and kernel.CheckProbe (the
// kernel discovers the latter by type assertion on Machine.Check, so
// attachment order does not matter).
//
// Invariants asserted, by name:
//
//   - upid-state: a notification IPI departs only with SN clear and sets
//     ON; acknowledge leaves PIR empty.
//   - upid-conservation: popcount(PIR) always equals fresh posts minus
//     drained bits for that descriptor.
//   - uirr-conservation: popcount(UIRR) always equals fresh UIRR posts
//     minus started deliveries on that core.
//   - delivery-exclusive: delivery windows on one core never overlap.
//   - notification-conservation: acknowledges + UINV kernel traps never
//     exceed notification sends + kernel reposts.
//   - account-consistent: each core's cycle account self-sums and its
//     utilization is a valid fraction (checked at Finish).
type MachineChecker struct {
	col  *Collector
	m    *core.Machine
	name string

	// mu serializes probe callbacks: on a sharded machine (internal/shard)
	// they arrive concurrently from per-shard worker goroutines. All
	// counters are order-independent sums and the upids map is keyed by
	// pointer, so locking preserves determinism of the final state.
	mu sync.Mutex

	cores []mcCore                //xui:guardedby mu
	upids map[*uintr.UPID]*mcUPID //xui:guardedby mu

	sendsFresh  uint64 // senduipi that set a new PIR bit
	sendsMerged uint64 // senduipi coalesced onto an already-set bit
	notifSent   uint64 // notification IPIs departed
	acks        uint64 // notification-processing acknowledges
	uinvTraps   uint64 // UINV arrivals that missed the running thread
	reposts     uint64 // kernel slow-path reposts on reschedule
	deschedules uint64
	pirDrained  uint64 // PIR bits drained by acknowledges
	checks      uint64
}

type mcCore struct {
	posted     uint64 // fresh UIRR bits set
	merged     uint64 // coalesced UIRR posts
	delivStart uint64
	delivEnd   uint64
	kernelIntr uint64
	delivering bool
}

type mcUPID struct {
	posted  uint64
	drained uint64
}

// Attach builds a checker reporting into col and installs it on m.
func Attach(col *Collector, m *core.Machine, name string) *MachineChecker {
	mc := &MachineChecker{
		col:   col,
		m:     m,
		name:  name,
		cores: make([]mcCore, len(m.Cores)),
		upids: make(map[*uintr.UPID]*mcUPID),
	}
	m.SetCheck(mc)
	return mc
}

func (mc *MachineChecker) violate(inv string, t sim.Time, format string, args ...any) {
	mc.col.Violate(inv, t, mc.name, format, args...)
}

// upid returns (creating on first sight) the shadow state for one UPID.
// Called only from probe entry points, which lock mc.mu before touching
// checker state.
func (mc *MachineChecker) upid(u *uintr.UPID) *mcUPID {
	s, ok := mc.upids[u] //xui:lockok caller (probe entry point) holds mc.mu
	if !ok {
		s = &mcUPID{}
		mc.upids[u] = s //xui:lockok caller (probe entry point) holds mc.mu
	}
	return s
}

// Senduipi implements core.CheckProbe.
func (mc *MachineChecker) Senduipi(now sim.Time, sender, idx int, upid *uintr.UPID, vec uintr.Vector, notify, premerged bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	if upid == nil {
		return
	}
	u := mc.upid(upid)
	if premerged {
		mc.sendsMerged++
	} else {
		mc.sendsFresh++
		u.posted++
	}
	if notify {
		mc.notifSent++
		if upid.SN {
			mc.violate("upid-state", now, "core %d senduipi[%d]: notification departed with SN set", sender, idx)
		}
		if !upid.ON {
			mc.violate("upid-state", now, "core %d senduipi[%d]: notification departed without setting ON", sender, idx)
		}
	}
	if got, want := bits.OnesCount64(upid.PIR), u.posted-u.drained; uint64(got) != want {
		mc.violate("upid-conservation", now,
			"UPID %#x: popcount(PIR)=%d but fresh posts−drained=%d", upid.Addr, got, want)
	}
}

// NotifyAck implements core.CheckProbe.
func (mc *MachineChecker) NotifyAck(now sim.Time, coreID int, pir uint64) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	mc.acks++
	mc.pirDrained += uint64(bits.OnesCount64(pir))
	if upid := mc.m.Cores[coreID].UPID; upid != nil {
		if upid.PIR != 0 {
			mc.violate("upid-state", now, "vcore%d: PIR=%#x nonzero right after acknowledge", coreID, upid.PIR)
		}
		if upid.ON {
			mc.violate("upid-state", now, "vcore%d: ON still set right after acknowledge", coreID)
		}
		if s, ok := mc.upids[upid]; ok {
			s.drained += uint64(bits.OnesCount64(pir))
			if s.drained > s.posted {
				mc.violate("upid-conservation", now,
					"UPID %#x: drained %d bits but only %d were posted", upid.Addr, s.drained, s.posted)
			}
		}
	}
	mc.checkNotifConservation(now)
}

// Posted implements core.CheckProbe.
func (mc *MachineChecker) Posted(now sim.Time, coreID int, vector uintr.Vector, mech core.Mechanism, merged bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	cs := &mc.cores[coreID]
	if merged {
		cs.merged++
	} else {
		cs.posted++
	}
	mc.checkUIRR(now, coreID)
}

// DeliverStart implements core.CheckProbe.
func (mc *MachineChecker) DeliverStart(now sim.Time, coreID int, vector uintr.Vector, mech core.Mechanism, cost sim.Time) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	cs := &mc.cores[coreID]
	if cs.delivering {
		mc.violate("delivery-exclusive", now, "vcore%d: delivery of vector %d started inside another delivery", coreID, vector)
	}
	cs.delivering = true
	cs.delivStart++
	if cost <= 0 {
		mc.violate("account-consistent", now, "vcore%d: non-positive delivery cost %d for %v", coreID, cost, mech)
	}
	mc.checkUIRR(now, coreID)
}

// DeliverEnd implements core.CheckProbe.
func (mc *MachineChecker) DeliverEnd(now sim.Time, coreID int, vector uintr.Vector, mech core.Mechanism) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	cs := &mc.cores[coreID]
	if !cs.delivering {
		mc.violate("delivery-exclusive", now, "vcore%d: delivery of vector %d ended with none in progress", coreID, vector)
	}
	cs.delivering = false
	cs.delivEnd++
	if cs.delivEnd > cs.delivStart {
		mc.violate("delivery-exclusive", now, "vcore%d: %d deliveries ended but only %d started",
			coreID, cs.delivEnd, cs.delivStart)
	}
}

// KernelIntr implements core.CheckProbe.
func (mc *MachineChecker) KernelIntr(now sim.Time, coreID int, vector uint8) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	mc.cores[coreID].kernelIntr++
	if vector == core.UINV {
		mc.uinvTraps++
		mc.checkNotifConservation(now)
	}
}

// Scheduled implements kernel.CheckProbe.
func (mc *MachineChecker) Scheduled(now sim.Time, thread, coreID int, reposted bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	if reposted {
		mc.reposts++
	}
}

// Descheduled implements kernel.CheckProbe.
func (mc *MachineChecker) Descheduled(now sim.Time, thread, coreID int) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.checks++
	mc.deschedules++
	if mc.m.Cores[coreID].UPID != nil {
		mc.violate("upid-state", now, "vcore%d: UPID still installed after thread %d descheduled", coreID, thread)
	}
}

// checkUIRR asserts uirr-conservation on one core: bits pending equal fresh
// posts minus started deliveries.
func (mc *MachineChecker) checkUIRR(now sim.Time, coreID int) {
	cs := &mc.cores[coreID] //xui:lockok caller (probe entry point) holds mc.mu
	got := uint64(bits.OnesCount64(mc.m.Cores[coreID].UIRRPending()))
	want := cs.posted - cs.delivStart
	if got != want {
		mc.violate("uirr-conservation", now,
			"vcore%d: popcount(UIRR)=%d but fresh posts−delivery starts=%d", coreID, got, want)
	}
}

// checkNotifConservation asserts every acknowledged or kernel-trapped UINV
// arrival is backed by a departed notification or repost.
func (mc *MachineChecker) checkNotifConservation(now sim.Time) {
	if mc.acks+mc.uinvTraps > mc.notifSent+mc.reposts {
		mc.violate("notification-conservation", now,
			"acks(%d)+traps(%d) exceed notifications(%d)+reposts(%d)",
			mc.acks, mc.uinvTraps, mc.notifSent, mc.reposts)
	}
}

// Finish runs the end-of-run invariants and flushes counters into the
// collector. Call exactly once when the run ends; the checker stays
// attached but its counters have been handed off.
func (mc *MachineChecker) Finish() {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	now := mc.m.Sim.Now()
	mc.checks++
	mc.checkNotifConservation(now)
	for i := range mc.cores {
		mc.checkUIRR(now, i)
		v := mc.m.Cores[i]
		var sum uint64
		for _, cat := range v.Account.Categories() {
			sum += v.Account.Get(cat)
		}
		if sum != v.Account.Total() {
			mc.violate("account-consistent", now, "vcore%d: categories sum %d ≠ total %d", i, sum, v.Account.Total())
		}
		if u := v.Busy.Utilization(uint64(now)); u < 0 || u > 1.000001 {
			mc.violate("account-consistent", now, "vcore%d: utilization %v outside [0,1]", i, u)
		}
	}
	mc.col.AddChecks(mc.checks)
	mc.checks = 0
	flush := func(name string, n uint64) { mc.col.Count(mc.name+"/"+name, n) }
	flush("sends_fresh", mc.sendsFresh)
	flush("sends_merged", mc.sendsMerged)
	flush("notif_sent", mc.notifSent)
	flush("acks", mc.acks)
	flush("uinv_traps", mc.uinvTraps)
	flush("reposts", mc.reposts)
	flush("deschedules", mc.deschedules)
	flush("pir_drained", mc.pirDrained)
	var posted, merged, delivered uint64
	for i := range mc.cores {
		posted += mc.cores[i].posted
		merged += mc.cores[i].merged
		delivered += mc.cores[i].delivEnd
	}
	flush("uirr_posted", posted)
	flush("uirr_merged", merged)
	flush("delivered", delivered)
}

// Fingerprint digests the checker's protocol counters into a deterministic
// string; the fault scenarios compare fingerprints across same-seed runs.
func (mc *MachineChecker) Fingerprint() string {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	var posted, merged, delivered uint64
	for i := range mc.cores {
		posted += mc.cores[i].posted
		merged += mc.cores[i].merged
		delivered += mc.cores[i].delivEnd
	}
	return fmt.Sprintf("fresh=%d coal=%d notif=%d acks=%d traps=%d reposts=%d posted=%d merged=%d delivered=%d t=%d",
		mc.sendsFresh, mc.sendsMerged, mc.notifSent, mc.acks, mc.uinvTraps, mc.reposts,
		posted, merged, delivered, mc.m.Sim.Now())
}

var _ core.CheckProbe = (*MachineChecker)(nil)
