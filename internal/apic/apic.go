// Package apic models the interrupt routing fabric at event level: per-core
// local APICs, the inter-processor interrupt bus, an IOAPIC for devices —
// and the paper's interrupt-forwarding extension (§4.5), which lets a local
// APIC forward interrupts destined for its core directly to the thread
// currently running there.
package apic

import (
	"fmt"

	"xui/internal/sim"
)

// BusLatency is the interconnect latency for an interrupt message between
// two local APICs, calibrated so that the end of senduipi's ICR write plus
// this wire delay lands the IPI at the receiver ≈380 cycles after senduipi
// begins (Figure 2).
const BusLatency sim.Time = 13

// NumVectors is the size of the per-core conventional vector space.
const NumVectors = 256

// Sink receives interrupts accepted by a local APIC. The machine model
// wires this to the owning core's delivery path (Tier-2) or records it.
type Sink interface {
	// RaiseInterrupt is invoked when the local APIC signals the core with
	// a conventional interrupt vector.
	RaiseInterrupt(now sim.Time, vector uint8)
	// RaiseForwarded is invoked on the fast path of interrupt forwarding:
	// the vector was mapped and active, so it goes straight to the
	// running user thread (no UPID involved, §4.5).
	RaiseForwarded(now sim.Time, vector uint8)
	// RaiseForwardedSlow is invoked when a forwarded-enabled vector
	// arrives while its target thread is not running: the kernel takes a
	// conventional interrupt, reads UIRR and posts to the DUPID.
	RaiseForwardedSlow(now sim.Time, vector uint8)
}

// vecMask is a 256-bit vector bitmap — the register type the paper's
// extension adds twice to each local APIC.
type vecMask [4]uint64

func (m *vecMask) set(v uint8)        { m[v>>6] |= 1 << (v & 63) }
func (m *vecMask) clear(v uint8)      { m[v>>6] &^= 1 << (v & 63) }
func (m *vecMask) get(v uint8) bool   { return m[v>>6]&(1<<(v&63)) != 0 }
func (m *vecMask) loadFrom(o vecMask) { *m = o }

// LocalAPIC is one core's interrupt controller.
type LocalAPIC struct {
	id   uint32 // APICID
	bus  *Bus
	sink Sink

	// Interrupt forwarding state (§4.5): forwardingEnabled selects which
	// vectors are forwarded at all on this core; forwardedActive selects
	// which of those belong to the currently running thread.
	forwardingEnabled vecMask
	forwardedActive   vecMask

	// Extended-message mode (§4.5 future work): route by thread tag
	// instead of per-vector masks.
	extended   bool
	currentTag ThreadTag

	// Delivered counters by path, for experiment accounting.
	Conventional, FastForwarded, SlowForwarded uint64
}

// ID returns the APICID.
func (l *LocalAPIC) ID() uint32 { return l.id }

// EnableForwarding marks vector as forwarded on this core.
func (l *LocalAPIC) EnableForwarding(vector uint8) { l.forwardingEnabled.set(vector) }

// DisableForwarding unmarks the vector.
func (l *LocalAPIC) DisableForwarding(vector uint8) { l.forwardingEnabled.clear(vector) }

// SetActiveMask installs the running thread's 256-bit forwarded-vector
// mask; the kernel writes it on every context switch (§4.5).
func (l *LocalAPIC) SetActiveMask(mask [4]uint64) { l.forwardedActive.loadFrom(mask) }

// ActivateVector sets one bit of the active mask.
func (l *LocalAPIC) ActivateVector(vector uint8) { l.forwardedActive.set(vector) }

// DeactivateVector clears one bit of the active mask.
func (l *LocalAPIC) DeactivateVector(vector uint8) { l.forwardedActive.clear(vector) }

// Accept is called by the bus when an interrupt message reaches this APIC.
func (l *LocalAPIC) Accept(now sim.Time, vector uint8) {
	switch {
	case !l.forwardingEnabled.get(vector):
		l.Conventional++
		l.sink.RaiseInterrupt(now, vector)
	case l.forwardedActive.get(vector):
		l.FastForwarded++
		l.sink.RaiseForwarded(now, vector)
	default:
		l.SlowForwarded++
		l.sink.RaiseForwardedSlow(now, vector)
	}
}

// SendIPI writes the ICR: an interrupt message departs for the destination
// APIC and arrives after BusLatency.
func (l *LocalAPIC) SendIPI(dest uint32, vector uint8) error {
	return l.bus.send(dest, vector)
}

// SelfIPI posts a vector to this APIC through the bus (used by the kernel
// slow path to repost captured user interrupts, §3.2).
func (l *LocalAPIC) SelfIPI(vector uint8) {
	_ = l.bus.send(l.id, vector)
}

// Bus connects local APICs and carries interrupt messages with a fixed
// latency. The IOAPIC and devices also inject messages here.
type Bus struct {
	sim *sim.Simulator
	// apics is indexed by APICID, with nil for IDs not on this bus. IDs
	// are core numbers, so the slice is as long as the largest ID on the
	// bus; every interrupt message reads it twice (send and arrive).
	apics  []*LocalAPIC
	router Router // forwards messages for APICIDs on other buses (sharding)
	// Sent counts all messages carried, including ones handed to the
	// router (counted at departure, not again at arrival).
	Sent uint64
	// accept is the arrival handler of every local message, bound once so
	// a send allocates nothing; its payload is dest<<8|vector.
	accept sim.ArgHandler
}

// NewBus creates an empty interrupt bus on the given simulator.
func NewBus(s *sim.Simulator) *Bus {
	b := &Bus{sim: s}
	b.accept = b.arrive
	return b
}

// maxAPICID is the largest APICID a bus accepts. IDs index a slice, so
// they must stay small; the model numbers APICs by core.
const maxAPICID = 1<<16 - 1

// NewLocalAPIC attaches a new local APIC with the given APICID and sink.
func (b *Bus) NewLocalAPIC(id uint32, sink Sink) (*LocalAPIC, error) {
	if id > maxAPICID {
		return nil, fmt.Errorf("apic: APICID %d above the model's limit %d", id, maxAPICID)
	}
	if b.APIC(id) != nil {
		return nil, fmt.Errorf("apic: duplicate APICID %d", id)
	}
	if n := int(id) + 1; n > len(b.apics) {
		b.apics = append(b.apics, make([]*LocalAPIC, n-len(b.apics))...)
	}
	l := &LocalAPIC{id: id, bus: b, sink: sink}
	b.apics[id] = l
	return l, nil
}

// APIC returns the local APIC with the given ID, or nil.
//
//xui:noalloc
func (b *Bus) APIC(id uint32) *LocalAPIC {
	if id < uint32(len(b.apics)) {
		return b.apics[id]
	}
	return nil
}

// send puts a message on the bus: it reaches a local APIC after
// BusLatency, or goes to the router when dest is on another bus.
//
//xui:noalloc
func (b *Bus) send(dest uint32, vector uint8) error {
	if b.APIC(dest) == nil {
		if b.router != nil {
			b.Sent++
			return b.router.Route(dest, vector)
		}
		return fmt.Errorf("apic: no APIC with ID %d", dest) //xui:alloc error path: no bus has this APIC ID, a model bug the caller reports
	}
	b.Sent++
	b.sim.AfterArg(BusLatency, b.accept, uint64(dest)<<8|uint64(vector))
	return nil
}

// arrive hands a message that has crossed the bus to its APIC. APICs are
// never detached, so the destination send found is still there.
//
//xui:noalloc
func (b *Bus) arrive(now sim.Time, arg uint64) {
	b.apics[arg>>8].Accept(now, uint8(arg))
}

// IOAPIC routes device interrupt lines (GSIs) to ⟨APICID, vector⟩ pairs,
// the way MSI-X/IOAPIC redirection entries do.
type IOAPIC struct {
	bus     *Bus
	entries map[int]Redirection
}

// Redirection is one redirection-table entry.
type Redirection struct {
	Dest   uint32
	Vector uint8
	Masked bool
}

// NewIOAPIC creates an IOAPIC on the bus.
func NewIOAPIC(bus *Bus) *IOAPIC {
	return &IOAPIC{bus: bus, entries: make(map[int]Redirection)}
}

// Program installs the redirection entry for a GSI.
func (io *IOAPIC) Program(gsi int, r Redirection) { io.entries[gsi] = r }

// Mask suppresses a GSI.
func (io *IOAPIC) Mask(gsi int) {
	e := io.entries[gsi]
	e.Masked = true
	io.entries[gsi] = e
}

// Unmask re-enables a GSI.
func (io *IOAPIC) Unmask(gsi int) {
	e := io.entries[gsi]
	e.Masked = false
	io.entries[gsi] = e
}

// Assert raises a device interrupt on the GSI line.
func (io *IOAPIC) Assert(gsi int) error {
	e, ok := io.entries[gsi]
	if !ok {
		return fmt.Errorf("apic: GSI %d not programmed", gsi)
	}
	if e.Masked {
		return nil
	}
	return io.bus.send(e.Dest, e.Vector)
}
