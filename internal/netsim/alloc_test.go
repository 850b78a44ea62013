package netsim

import (
	"testing"

	"xui/internal/apic"
	"xui/internal/core"
	"xui/internal/lpm"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// l3fwdRig is one forwarding core fed by one generator, in either poll
// mode or interrupt mode with the NIC's interrupt forwarded to the core.
func l3fwdRig(t *testing.T, mode Mode) *sim.Simulator {
	t.Helper()
	s := sim.New(1)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		t.Fatal(err)
	}
	v := m.Cores[0]
	n := NewNIC(s, 0)
	l, err := NewL3Fwd(s, lpm.GenerateTable(1000, 3), []*NIC{n}, v, mode)
	if err != nil {
		t.Fatal(err)
	}
	if mode == InterruptMode {
		m.IOAPIC.Program(0, apic.Redirection{Dest: 0, Vector: 0x31})
		v.APIC.EnableForwarding(0x31)
		v.APIC.ActivateVector(0x31)
		n.OnAssert = func() { _ = m.IOAPIC.Assert(0) }
		v.Handler = func(now sim.Time, _ uintr.Vector, _ core.Mechanism) { l.HandleInterrupt(now) }
	}
	StartGenerator(s, n, 1500, 11)
	l.Start()
	// Warm-up: event slabs, the NIC ring and the latency histograms'
	// buckets reach their steady-state sizes.
	s.RunUntil(20 * sim.Millisecond)
	return s
}

// steadyAllocs runs the rig in 50 µs slices and returns the average heap
// allocations per slice.
func steadyAllocs(s *sim.Simulator) float64 {
	return testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 50*sim.Microsecond) })
}

// TestForwardedBurstAllocFree pins the forwarded-interrupt l3fwd path at
// zero allocations once warm: generator → NIC.Inject → IOAPIC → bus →
// RaiseForwarded → tryDeliver → handler → drain → re-arm.
func TestForwardedBurstAllocFree(t *testing.T) {
	if got := steadyAllocs(l3fwdRig(t, InterruptMode)); got != 0 {
		t.Errorf("forwarded-interrupt l3fwd allocates %.1f objects per 50 µs, want 0", got)
	}
}

// TestPollRoundAllocFree pins the poll-mode loop at zero allocations once
// warm: every pollRound re-arms itself with the handler bound at
// construction.
func TestPollRoundAllocFree(t *testing.T) {
	if got := steadyAllocs(l3fwdRig(t, PollMode)); got != 0 {
		t.Errorf("poll-mode l3fwd allocates %.1f objects per 50 µs, want 0", got)
	}
}

// TestRingKeepsOrderAcrossCompaction checks the ring's in-place
// compaction: partial polls interleaved with injects return packets in
// arrival order, and the queue still drops at RingSize.
func TestRingKeepsOrderAcrossCompaction(t *testing.T) {
	n := NewNIC(sim.New(1), 0)
	var next, want uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			next++
			n.Inject(Packet{ID: next})
		}
		for _, p := range n.Poll(29) {
			want++
			if p.ID != want {
				t.Fatalf("round %d: polled packet %d, want %d", round, p.ID, want)
			}
		}
	}
	for n.Len() < RingSize {
		next++
		n.Inject(Packet{ID: next})
	}
	n.Inject(Packet{ID: next + 1})
	if n.Dropped != 1 || n.Len() != RingSize {
		t.Fatalf("full ring: dropped=%d len=%d, want 1 and %d", n.Dropped, n.Len(), RingSize)
	}
	for n.Len() > 0 {
		for _, p := range n.Poll(Burst) {
			want++
			if p.ID != want {
				t.Fatalf("drain: polled packet %d, want %d", p.ID, want)
			}
		}
	}
	if want != next {
		t.Fatalf("drained through packet %d, injected %d", want, next)
	}
}
