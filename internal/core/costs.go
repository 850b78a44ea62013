package core

import "xui/internal/sim"

// Mechanism enumerates the notification mechanisms the paper compares.
type Mechanism uint8

const (
	// BusyPoll spins on a completion/notification line.
	BusyPoll Mechanism = iota
	// PeriodicPoll checks on an OS interval timer.
	PeriodicPoll
	// Signal is a POSIX signal.
	Signal
	// UIPI is stock Intel UIPI (flush-based delivery, UPID routing).
	UIPI
	// TrackedIPI is a user IPI delivered with xUI tracking (UPID routing,
	// no flush).
	TrackedIPI
	// KBTimerIntr is a kernel-bypass timer expiry (delivery-only path).
	KBTimerIntr
	// ForwardedIntr is a device interrupt routed by interrupt forwarding
	// (delivery-only path).
	ForwardedIntr
)

func (m Mechanism) String() string {
	switch m {
	case BusyPoll:
		return "busy-poll"
	case PeriodicPoll:
		return "periodic-poll"
	case Signal:
		return "signal"
	case UIPI:
		return "uipi"
	case TrackedIPI:
		return "xui-tracked"
	case KBTimerIntr:
		return "xui-kbtimer"
	case ForwardedIntr:
		return "xui-forwarded"
	}
	return "mechanism?"
}

// Costs is the Tier-2 per-event cost model, in cycles. The defaults come
// from the paper's measurements (Table 2, §4.1) and are cross-checked
// against the Tier-1 pipeline model by internal/experiments. Each table is
// indexed by Mechanism; a delivery reads one on every event.
type Costs struct {
	// ReceiverByMech is the receiver-side cost of accepting one event.
	ReceiverByMech [ForwardedIntr + 1]sim.Time
	// SenderByMech is the sender-side cost of signalling one event.
	SenderByMech [ForwardedIntr + 1]sim.Time
	// WireByMech is the in-flight latency from signal to receiver pin.
	WireByMech [ForwardedIntr + 1]sim.Time
}

// DefaultCosts returns the calibrated model.
func DefaultCosts() Costs {
	return Costs{
		ReceiverByMech: [ForwardedIntr + 1]sim.Time{
			BusyPoll:      PollingNotifyCost,
			PeriodicPoll:  PollingNotifyCost,
			Signal:        SignalCost,
			UIPI:          UIPIReceiverCost,
			TrackedIPI:    TrackedIPICost,
			KBTimerIntr:   DeliveryOnlyCost,
			ForwardedIntr: DeliveryOnlyCost,
		},
		SenderByMech: [ForwardedIntr + 1]sim.Time{
			BusyPoll:      0, // remote store; the writer's RFO is charged by the device/core model
			PeriodicPoll:  0,
			Signal:        SyscallCost, // tgkill() on the sender
			UIPI:          SenduipiCost,
			TrackedIPI:    SenduipiCost, // xUI does not change the sender path for IPIs
			KBTimerIntr:   0,            // the timer is the sender
			ForwardedIntr: 0,            // the device is the sender
		},
		WireByMech: [ForwardedIntr + 1]sim.Time{
			BusyPoll:      PollingNotifyCost / 2, // line transfer observed by the spinning reader
			PeriodicPoll:  0,                     // latency dominated by the poll period, charged by the model
			Signal:        SignalCost / 2,
			UIPI:          IPIWireArrival,
			TrackedIPI:    IPIWireArrival,
			KBTimerIntr:   0,
			ForwardedIntr: 13, // device message bus hop (apic.BusLatency)
		},
	}
}

// Receiver returns the receiver-side cost for m.
func (c Costs) Receiver(m Mechanism) sim.Time { return c.ReceiverByMech[m] }

// Sender returns the sender-side cost for m.
func (c Costs) Sender(m Mechanism) sim.Time { return c.SenderByMech[m] }

// Wire returns the in-flight latency for m.
func (c Costs) Wire(m Mechanism) sim.Time { return c.WireByMech[m] }

// EndToEnd returns sender + wire + receiver: the latency from the sender
// deciding to notify until the receiver's handler has run.
func (c Costs) EndToEnd(m Mechanism) sim.Time {
	return c.Sender(m) + c.Wire(m) + c.Receiver(m)
}
