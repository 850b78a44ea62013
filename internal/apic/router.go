package apic

import (
	"fmt"

	"xui/internal/sim"
)

// Router forwards interrupt messages whose destination APICID is not
// attached to this bus. The sharded machine (core.NewSharded) installs one
// per group bus, so IPIs, IOAPIC asserts, SelfIPI reposts and extended
// device messages all cross shard boundaries through the same chokepoint
// that carries them locally. The router owns the full remaining latency
// (bus wire + interconnect) and injects the message on the destination
// bus with Deliver/DeliverExtended once it arrives there.
type Router interface {
	Route(dest uint32, vector uint8) error
	RouteExtended(dest uint32, vector uint8, tag ThreadTag) error
}

// SetRouter attaches a router for off-bus destinations (nil detaches: an
// unknown APICID is then an error again, the single-bus behavior).
func (b *Bus) SetRouter(r Router) { b.router = r }

// Deliver accepts a message on one of this bus's APICs with no further
// latency — the destination-side entry point for routed messages, invoked
// at arrival time on the destination shard's kernel. The message was
// counted in the source bus's Sent when it departed, so Deliver does not
// recount it.
func (b *Bus) Deliver(now sim.Time, dest uint32, vector uint8) error {
	target := b.APIC(dest)
	if target == nil {
		return fmt.Errorf("apic: routed message for ID %d, which is not on this bus", dest)
	}
	target.Accept(now, vector)
	return nil
}

// DeliverExtended is Deliver for tagged extended messages.
func (b *Bus) DeliverExtended(now sim.Time, dest uint32, vector uint8, tag ThreadTag) error {
	target := b.APIC(dest)
	if target == nil {
		return fmt.Errorf("apic: routed message for ID %d, which is not on this bus", dest)
	}
	target.AcceptExtended(now, vector, tag)
	return nil
}
