package apic

import (
	"fmt"

	"xui/internal/sim"
)

// Extended interrupt messages — the paper's own future-work suggestion for
// lifting the forwarding vector-space ceiling (§4.5: "One could imagine
// adding a new field to the message format of the interrupt system, or
// repurposing unused bits in the existing message format (e.g. the
// clusterID) to avoid this limitation").
//
// With the extension enabled on a local APIC, device messages carry a
// 16-bit thread tag alongside the vector. The APIC compares the tag
// against the running thread's tag instead of consulting the 256-bit
// per-vector masks, so the number of device/user pairs is bounded by the
// tag space (65,535) rather than by the core's vector space (≈222).

// ThreadTag identifies a receiver thread in extended messages. Tag 0 means
// "no thread" and never matches.
type ThreadTag uint16

// EnableExtendedMessages switches the APIC into extended-message mode. The
// kernel writes the running thread's tag on every context switch with
// SetCurrentTag.
func (l *LocalAPIC) EnableExtendedMessages() { l.extended = true }

// ExtendedMessages reports whether the extension is active.
func (l *LocalAPIC) ExtendedMessages() bool { return l.extended }

// SetCurrentTag installs the running thread's tag (0 = none).
func (l *LocalAPIC) SetCurrentTag(tag ThreadTag) { l.currentTag = tag }

// AcceptExtended is the delivery path for a tagged device message: fast
// path straight to the running user thread when the tag matches, slow path
// to the kernel otherwise.
func (l *LocalAPIC) AcceptExtended(now sim.Time, vector uint8, tag ThreadTag) {
	if !l.extended {
		// Fall back to classic routing: the tag is ignored, exactly what a
		// pre-extension APIC would do with repurposed clusterID bits.
		l.Accept(now, vector)
		return
	}
	if tag != 0 && tag == l.currentTag {
		l.FastForwarded++
		l.sink.RaiseForwarded(now, vector)
		return
	}
	l.SlowForwarded++
	l.sink.RaiseForwardedSlow(now, vector)
}

// SendExtended injects a tagged device message toward the destination APIC
// (the device-side analogue of IOAPIC.Assert for extension-aware devices).
func (b *Bus) SendExtended(dest uint32, vector uint8, tag ThreadTag) error {
	target := b.APIC(dest)
	if target == nil {
		if b.router != nil {
			b.Sent++
			return b.router.RouteExtended(dest, vector, tag)
		}
		return fmt.Errorf("apic: no APIC with ID %d", dest)
	}
	b.Sent++
	b.sim.After(BusLatency, func(now sim.Time) {
		target.AcceptExtended(now, vector, tag)
	})
	return nil
}
