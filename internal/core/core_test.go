package core

import (
	"testing"

	"xui/internal/sim"
	"xui/internal/uintr"
)

func newM(t *testing.T, n int, mech Mechanism) (*sim.Simulator, *Machine) {
	t.Helper()
	s := sim.New(1)
	m, err := NewMachine(s, n, mech)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestMachineRejectsBadMechanism(t *testing.T) {
	if _, err := NewMachine(sim.New(1), 1, Signal); err == nil {
		t.Errorf("NewMachine accepted Signal as IPI mechanism")
	}
}

func TestUIPIEndToEnd(t *testing.T) {
	s, m := newM(t, 2, UIPI)
	recv := m.Cores[1]
	upid := &uintr.UPID{NV: UINV, NDST: 1}
	recv.UPID = upid

	var deliveredAt sim.Time
	var gotVec uintr.Vector
	var gotMech Mechanism
	recv.Handler = func(now sim.Time, v uintr.Vector, mech Mechanism) {
		deliveredAt, gotVec, gotMech = now, v, mech
	}

	var uitt uintr.UITT
	idx := uitt.Register(upid, 9)
	if err := m.SendUIPI(0, &uitt, idx); err != nil {
		t.Fatal(err)
	}
	s.Run()

	if gotVec != 9 || gotMech != UIPI {
		t.Fatalf("delivered vector %d mech %v", gotVec, gotMech)
	}
	want := IcrOffset + 13 /*bus*/ + UIPIReceiverCost
	if deliveredAt != want {
		t.Errorf("delivered at %d, want %d", deliveredAt, want)
	}
	// End-to-end ≈ the paper's 1360-cycle Table 2 number (arrival ≈380 +
	// receiver 720 + handler; we land within 25%).
	if deliveredAt < 900 || deliveredAt > 1700 {
		t.Errorf("end-to-end %d cycles implausible vs paper's 1360", deliveredAt)
	}
	if recv.Delivered[UIPI] != 1 {
		t.Errorf("delivery counter %v", recv.Delivered)
	}
	if m.Cores[0].Account.Get(CatSend) != SenduipiCost {
		t.Errorf("sender charged %d", m.Cores[0].Account.Get(CatSend))
	}
}

func TestTrackedIPICheaperThanUIPI(t *testing.T) {
	lat := func(mech Mechanism) sim.Time {
		s, m := newM(t, 2, mech)
		recv := m.Cores[1]
		upid := &uintr.UPID{NV: UINV, NDST: 1}
		recv.UPID = upid
		var at sim.Time
		recv.Handler = func(now sim.Time, _ uintr.Vector, _ Mechanism) { at = now }
		var uitt uintr.UITT
		idx := uitt.Register(upid, 1)
		if err := m.SendUIPI(0, &uitt, idx); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return at
	}
	if lu, lt := lat(UIPI), lat(TrackedIPI); lt >= lu {
		t.Errorf("tracked IPI (%d) not cheaper than UIPI (%d)", lt, lu)
	}
}

func TestUIPISlowPathWhenDescheduled(t *testing.T) {
	s, m := newM(t, 2, UIPI)
	recv := m.Cores[1]
	upid := &uintr.UPID{NV: UINV, NDST: 1}
	// Thread descheduled: UPID not installed on the core, SN set.
	upid.Suppress()

	kernelCalls := 0
	recv.OnKernelInterrupt = func(sim.Time, uint8) { kernelCalls++ }
	delivered := 0
	recv.Handler = func(sim.Time, uintr.Vector, Mechanism) { delivered++ }

	var uitt uintr.UITT
	idx := uitt.Register(upid, 3)
	if err := m.SendUIPI(0, &uitt, idx); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// SN suppressed the notification IPI entirely: posted but no IPI.
	if kernelCalls != 0 || delivered != 0 {
		t.Errorf("SN-suppressed send caused activity: kernel=%d user=%d", kernelCalls, delivered)
	}
	if !upid.Pending() {
		t.Errorf("posted vector lost")
	}

	// Without SN but with no UPID installed (different thread running),
	// the notification takes the kernel slow path.
	upid.Unsuppress()
	upid.ON = false
	if err := m.SendUIPI(0, &uitt, idx); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if kernelCalls != 1 || delivered != 0 {
		t.Errorf("slow path not taken: kernel=%d user=%d", kernelCalls, delivered)
	}
}

func TestUIFHoldsDeliveryUntilStui(t *testing.T) {
	s, m := newM(t, 1, UIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	delivered := 0
	c.Handler = func(sim.Time, uintr.Vector, Mechanism) { delivered++ }

	c.Clui() // block user interrupts
	if c.Testui() {
		t.Fatalf("testui true after clui")
	}
	c.UPID.Post(1)
	c.APIC.SelfIPI(UINV)
	s.Run()
	if delivered != 0 {
		t.Fatalf("delivered despite UIF clear")
	}
	// Recognition still happened: the vector sits in UIRR.
	if c.UIRRPending() != 1<<1 {
		t.Fatalf("UIRR = %#x, want bit 1 held", c.UIRRPending())
	}
	c.Stui(s.Now()) // stui re-scans UIRR and delivers
	s.Run()
	if delivered != 1 {
		t.Errorf("stui did not deliver the held vector (delivered=%d)", delivered)
	}
	// clui+stui charged their Table 2 costs.
	if got := c.Account.Get(CatWork); got != CluiCost+StuiCost {
		t.Errorf("clui+stui charged %d, want %d", got, CluiCost+StuiCost)
	}
}

func TestMultipleVectorsDeliveredInPriorityOrder(t *testing.T) {
	s, m := newM(t, 1, UIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	var order []uintr.Vector
	c.Handler = func(_ sim.Time, v uintr.Vector, _ Mechanism) { order = append(order, v) }
	// Post three vectors before the notification IPI lands.
	c.UPID.Post(3)
	c.UPID.Post(41)
	c.UPID.Post(7)
	c.APIC.SelfIPI(UINV)
	s.Run()
	if len(order) != 3 {
		t.Fatalf("delivered %d vectors, want 3: %v", len(order), order)
	}
	want := []uintr.Vector{41, 7, 3} // highest priority first
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
	if c.Delivered[UIPI] != 3 {
		t.Errorf("delivery count %v", c.Delivered)
	}
}

func TestForwardedDeliveryCost(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.APIC.EnableForwarding(0x30)
	c.APIC.ActivateVector(0x30)
	var at sim.Time
	var mech Mechanism
	c.Handler = func(now sim.Time, _ uintr.Vector, m Mechanism) { at, mech = now, m }
	start := s.Now()
	c.APIC.SelfIPI(0x30)
	s.Run()
	if mech != ForwardedIntr {
		t.Fatalf("mechanism %v", mech)
	}
	if got := at - start; got != 13+DeliveryOnlyCost {
		t.Errorf("forwarded delivery took %d, want %d", got, 13+DeliveryOnlyCost)
	}
	if c.Account.Get(CatNotify) != DeliveryOnlyCost {
		t.Errorf("charged %d", c.Account.Get(CatNotify))
	}
}

func TestKBTimerPeriodicDelivery(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.KBT.Enable(5)
	var fires []sim.Time
	c.Handler = func(now sim.Time, v uintr.Vector, mech Mechanism) {
		if v != 5 || mech != KBTimerIntr {
			t.Errorf("fire: vector %d mech %v", v, mech)
		}
		fires = append(fires, now)
	}
	if err := c.KBT.Set(10000, Periodic); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50000 + DeliveryOnlyCost) // include the last expiry's delivery
	if len(fires) != 5 {
		t.Fatalf("fired %d times, want 5", len(fires))
	}
	if fires[0] != 10000+DeliveryOnlyCost {
		t.Errorf("first fire at %d", fires[0])
	}
}

func TestKBTimerRequiresKernelEnable(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	if err := c.KBT.Set(100, Periodic); err == nil {
		t.Errorf("Set succeeded on a disabled timer")
	}
	c.KBT.Enable(1)
	if err := c.KBT.Set(0, Periodic); err == nil {
		t.Errorf("zero period accepted")
	}
	if err := c.KBT.Set(100, Periodic); err != nil {
		t.Fatal(err)
	}
	c.KBT.Disable()
	s.RunUntil(1000)
	if c.KBT.Fired != 0 {
		t.Errorf("disabled timer fired %d times", c.KBT.Fired)
	}
}

func TestKBTimerOneShotDeadline(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.KBT.Enable(2)
	var fires []sim.Time
	c.Handler = func(now sim.Time, _ uintr.Vector, _ Mechanism) { fires = append(fires, now) }
	if err := c.KBT.Set(7777, OneShot); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(50000)
	if len(fires) != 1 {
		t.Fatalf("one-shot fired %d times", len(fires))
	}
	if fires[0] != 7777+DeliveryOnlyCost {
		t.Errorf("fired at %d, want deadline 7777 + delivery", fires[0])
	}
}

func TestKBTimerClear(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.KBT.Enable(2)
	if err := c.KBT.Set(500, OneShot); err != nil {
		t.Fatal(err)
	}
	c.KBT.Clear()
	s.RunUntil(2000)
	if c.KBT.Fired != 0 {
		t.Errorf("cleared timer fired")
	}
}

func TestKBTimerSaveRestore(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.KBT.Enable(4)
	if err := c.KBT.Set(10000, OneShot); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2000)
	st := c.KBT.Save()
	if !st.Armed || st.Deadline != 10000 || st.Mode != OneShot || st.Vector != 4 {
		t.Fatalf("saved state %+v", st)
	}
	c.KBT.Clear() // context switched out

	// Restore before the deadline: fires on time.
	s.RunUntil(5000)
	if missed := c.KBT.Restore(st); missed {
		t.Errorf("restore before deadline reported missed")
	}
	fired := 0
	c.Handler = func(sim.Time, uintr.Vector, Mechanism) { fired++ }
	s.RunUntil(20000)
	if fired != 1 {
		t.Errorf("restored one-shot fired %d times", fired)
	}
}

func TestKBTimerRestoreMissedDeadline(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.KBT.Enable(4)
	if err := c.KBT.Set(1000, OneShot); err != nil {
		t.Fatal(err)
	}
	st := c.KBT.Save()
	c.KBT.Clear()
	s.RunUntil(5000) // deadline passes while descheduled
	fired := 0
	c.Handler = func(sim.Time, uintr.Vector, Mechanism) { fired++ }
	if missed := c.KBT.Restore(st); !missed {
		t.Errorf("missed deadline not reported")
	}
	s.RunUntil(6000)
	if fired != 1 {
		t.Errorf("missed one-shot delivered %d times", fired)
	}
}

func TestKBTimerRestorePeriodicContinues(t *testing.T) {
	s, m := newM(t, 1, TrackedIPI)
	c := m.Cores[0]
	c.UPID = &uintr.UPID{NV: UINV, NDST: 0}
	c.KBT.Enable(4)
	if err := c.KBT.Set(1000, Periodic); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2500) // two fires
	st := c.KBT.Save()
	c.KBT.Clear()
	s.RunUntil(2600)
	c.KBT.Restore(st)
	fired := 0
	c.Handler = func(sim.Time, uintr.Vector, Mechanism) { fired++ }
	s.RunUntil(5200) // next deadline 3000, then 4000, 5000
	if fired != 3 {
		t.Errorf("restored periodic fired %d times, want 3", fired)
	}
}

func TestCostsModel(t *testing.T) {
	c := DefaultCosts()
	if c.Receiver(UIPI) != UIPIReceiverCost || c.Receiver(KBTimerIntr) != DeliveryOnlyCost {
		t.Errorf("receiver costs wrong")
	}
	if c.EndToEnd(UIPI) != SenduipiCost+IPIWireArrival+UIPIReceiverCost {
		t.Errorf("end-to-end composition wrong: %d", c.EndToEnd(UIPI))
	}
	// Ordering the paper establishes: polling < delivery-only < tracked <
	// UIPI < signal.
	order := []Mechanism{BusyPoll, KBTimerIntr, TrackedIPI, UIPI, Signal}
	for i := 1; i < len(order); i++ {
		if c.Receiver(order[i-1]) >= c.Receiver(order[i]) {
			t.Errorf("receiver cost ordering violated at %v(%d) vs %v(%d)",
				order[i-1], c.Receiver(order[i-1]), order[i], c.Receiver(order[i]))
		}
	}
	for _, m := range order {
		if m.String() == "mechanism?" {
			t.Errorf("mechanism %d unnamed", m)
		}
	}
}

// TestHighestVector checks the math/bits form against a bit-by-bit scan
// from the top: 0, every single bit, a two-bit mask, and seeded random
// masks (shifted ones included, so low vectors are exercised too).
func TestHighestVector(t *testing.T) {
	scan := func(pir uint64) uintr.Vector {
		for i := 63; i >= 0; i-- {
			if pir&(1<<uint(i)) != 0 {
				return uintr.Vector(i)
			}
		}
		return 0
	}
	masks := []uint64{0, 1<<40 | 1<<3}
	for i := 0; i < 64; i++ {
		masks = append(masks, 1<<uint(i))
	}
	rng := sim.NewRNG(42)
	for i := 0; i < 1000; i++ {
		m := rng.Uint64()
		masks = append(masks, m, m>>uint(rng.Intn(64)))
	}
	for _, m := range masks {
		if got, want := highestVector(m), scan(m); got != want {
			t.Fatalf("highestVector(%#x) = %d, want %d", m, got, want)
		}
	}
}
