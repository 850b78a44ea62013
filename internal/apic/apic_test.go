package apic

import (
	"testing"

	"xui/internal/sim"
)

type recordSink struct {
	conventional []uint8
	fast         []uint8
	slow         []uint8
	times        []sim.Time
}

func (r *recordSink) RaiseInterrupt(now sim.Time, v uint8) {
	r.conventional = append(r.conventional, v)
	r.times = append(r.times, now)
}
func (r *recordSink) RaiseForwarded(now sim.Time, v uint8) {
	r.fast = append(r.fast, v)
	r.times = append(r.times, now)
}
func (r *recordSink) RaiseForwardedSlow(now sim.Time, v uint8) {
	r.slow = append(r.slow, v)
	r.times = append(r.times, now)
}

func setup(t *testing.T, n int) (*sim.Simulator, *Bus, []*recordSink) {
	t.Helper()
	s := sim.New(1)
	bus := NewBus(s)
	sinks := make([]*recordSink, n)
	for i := 0; i < n; i++ {
		sinks[i] = &recordSink{}
		if _, err := bus.NewLocalAPIC(uint32(i), sinks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, bus, sinks
}

func TestIPIDeliveryAndLatency(t *testing.T) {
	s, bus, sinks := setup(t, 2)
	if err := bus.APIC(0).SendIPI(1, 0xEC); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(sinks[1].conventional) != 1 || sinks[1].conventional[0] != 0xEC {
		t.Fatalf("receiver got %v", sinks[1].conventional)
	}
	if sinks[1].times[0] != BusLatency {
		t.Errorf("arrival at %d, want BusLatency %d", sinks[1].times[0], BusLatency)
	}
	if len(sinks[0].conventional) != 0 {
		t.Errorf("sender received its own IPI")
	}
}

func TestDuplicateAPICID(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	if _, err := bus.NewLocalAPIC(7, &recordSink{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.NewLocalAPIC(7, &recordSink{}); err == nil {
		t.Errorf("duplicate APICID accepted")
	}
}

// TestSparseAPICIDs checks the ID-indexed lookup with holes: IDs between
// or past the attached ones are unknown, and messages still reach the
// attached APICs.
func TestSparseAPICIDs(t *testing.T) {
	s := sim.New(1)
	bus := NewBus(s)
	sinks := map[uint32]*recordSink{3: {}, 9: {}}
	for id, sink := range sinks {
		if _, err := bus.NewLocalAPIC(id, sink); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{0, 4, 8, 10, 1 << 31} {
		if bus.APIC(id) != nil {
			t.Errorf("APIC(%d) = non-nil for an unattached ID", id)
		}
		if err := bus.APIC(3).SendIPI(id, 1); err == nil {
			t.Errorf("send to unattached APICID %d succeeded", id)
		}
	}
	if err := bus.APIC(3).SendIPI(9, 0x40); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := sinks[9].conventional; len(got) != 1 || got[0] != 0x40 {
		t.Errorf("APIC 9 received %v, want [0x40]", got)
	}
	if _, err := bus.NewLocalAPIC(maxAPICID+1, &recordSink{}); err == nil {
		t.Errorf("APICID past the limit accepted")
	}
}

func TestSendToUnknownAPIC(t *testing.T) {
	_, bus, _ := setup(t, 1)
	if err := bus.APIC(0).SendIPI(99, 1); err == nil {
		t.Errorf("send to unknown APICID succeeded")
	}
}

func TestSelfIPI(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	bus.APIC(0).SelfIPI(0x21)
	s.Run()
	if len(sinks[0].conventional) != 1 || sinks[0].conventional[0] != 0x21 {
		t.Errorf("self-IPI not delivered: %v", sinks[0].conventional)
	}
}

func TestForwardingFastPath(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	a.EnableForwarding(0x30)
	a.ActivateVector(0x30)
	a.SelfIPI(0x30)
	s.Run()
	if len(sinks[0].fast) != 1 || sinks[0].fast[0] != 0x30 {
		t.Fatalf("fast path not taken: %+v", sinks[0])
	}
	if a.FastForwarded != 1 || a.Conventional != 0 || a.SlowForwarded != 0 {
		t.Errorf("counters: %+v", *a)
	}
}

func TestForwardingSlowPath(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	a.EnableForwarding(0x30)
	// Thread not running: active bit clear.
	a.SelfIPI(0x30)
	s.Run()
	if len(sinks[0].slow) != 1 {
		t.Fatalf("slow path not taken: %+v", sinks[0])
	}
	if a.SlowForwarded != 1 {
		t.Errorf("slow counter = %d", a.SlowForwarded)
	}
}

func TestForwardingDisabledIsConventional(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	a.EnableForwarding(0x30)
	a.DisableForwarding(0x30)
	a.SelfIPI(0x30)
	s.Run()
	if len(sinks[0].conventional) != 1 || len(sinks[0].fast)+len(sinks[0].slow) != 0 {
		t.Errorf("disabled forwarding misrouted: %+v", sinks[0])
	}
}

func TestActiveMaskSwap(t *testing.T) {
	// Context switch: thread A forwards 0x30, thread B forwards 0x40.
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	a.EnableForwarding(0x30)
	a.EnableForwarding(0x40)
	var maskA, maskB [4]uint64
	maskA[0x30>>6] = 1 << (0x30 & 63)
	maskB[0x40>>6] = 1 << (0x40 & 63)

	a.SetActiveMask(maskA)
	a.SelfIPI(0x30) // fast for A
	a.SelfIPI(0x40) // slow: belongs to B
	s.Run()
	a.SetActiveMask(maskB)
	a.SelfIPI(0x40) // now fast
	s.Run()
	if len(sinks[0].fast) != 2 || len(sinks[0].slow) != 1 {
		t.Errorf("mask swap routing wrong: fast=%v slow=%v", sinks[0].fast, sinks[0].slow)
	}
}

func TestVecMaskBoundaries(t *testing.T) {
	var m vecMask
	for _, v := range []uint8{0, 63, 64, 127, 128, 255} {
		if m.get(v) {
			t.Errorf("bit %d set in empty mask", v)
		}
		m.set(v)
		if !m.get(v) {
			t.Errorf("bit %d not set", v)
		}
		m.clear(v)
		if m.get(v) {
			t.Errorf("bit %d not cleared", v)
		}
	}
}

func TestIOAPIC(t *testing.T) {
	s, bus, sinks := setup(t, 2)
	io := NewIOAPIC(bus)
	io.Program(5, Redirection{Dest: 1, Vector: 0x55})
	if err := io.Assert(5); err != nil {
		t.Fatal(err)
	}
	if err := io.Assert(6); err == nil {
		t.Errorf("unprogrammed GSI asserted")
	}
	io.Mask(5)
	if err := io.Assert(5); err != nil {
		t.Fatal(err)
	}
	io.Unmask(5)
	if err := io.Assert(5); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := len(sinks[1].conventional); got != 2 {
		t.Errorf("delivered %d device interrupts, want 2 (one masked)", got)
	}
}

func TestExtendedMessages(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	if a.ExtendedMessages() {
		t.Fatalf("extension on by default")
	}
	a.EnableExtendedMessages()
	a.SetCurrentTag(42)

	// Matching tag → fast path, regardless of any vector masks.
	if err := bus.SendExtended(0, 0x90, 42); err != nil {
		t.Fatal(err)
	}
	// Mismatched tag → slow path.
	if err := bus.SendExtended(0, 0x90, 7); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Tag 0 never matches (no thread).
	a.SetCurrentTag(0)
	if err := bus.SendExtended(0, 0x90, 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(sinks[0].fast) != 1 || len(sinks[0].slow) != 2 {
		t.Errorf("routing: fast=%v slow=%v", sinks[0].fast, sinks[0].slow)
	}
	if err := bus.SendExtended(99, 1, 1); err == nil {
		t.Errorf("send to unknown APIC succeeded")
	}
}

func TestExtendedMessagesFallBackWhenDisabled(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	// Extension off: tagged messages route like classic vectors.
	if err := bus.SendExtended(0, 0x21, 5); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(sinks[0].conventional) != 1 {
		t.Errorf("fallback routing: %+v", sinks[0])
	}
}

func TestExtendedMessagesContextSwitch(t *testing.T) {
	s, bus, sinks := setup(t, 1)
	a := bus.APIC(0)
	a.EnableExtendedMessages()
	a.SetCurrentTag(1)
	_ = bus.SendExtended(0, 0x30, 2) // thread 2 not running → slow
	s.Run()
	a.SetCurrentTag(2) // context switch to thread 2
	_ = bus.SendExtended(0, 0x30, 2)
	s.Run()
	if len(sinks[0].slow) != 1 || len(sinks[0].fast) != 1 {
		t.Errorf("tag swap routing: fast=%v slow=%v", sinks[0].fast, sinks[0].slow)
	}
}
