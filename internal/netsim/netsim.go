// Package netsim models the network side of the paper's l3fwd experiments
// (§5.4, §6.2.2): NICs with receive rings fed by an open-loop packet
// generator with exponential inter-arrival times, and a DPDK-style layer-3
// forwarding application that receives packets either by busy polling or
// by xUI forwarded interrupts.
package netsim

import (
	"fmt"

	"xui/internal/apic"
	"xui/internal/core"
	"xui/internal/lpm"
	"xui/internal/sim"
	"xui/internal/stats"
	"xui/internal/uintr"
)

// Packet is a 64-byte IPv4 UDP packet's metadata.
type Packet struct {
	ID      uint64
	Arrived sim.Time
	DstIP   uint32
}

// RingSize is the receive descriptor ring depth per queue.
const RingSize = 1024

// NIC is one network interface with a single receive queue. (The paper
// models 1–8 NICs, each with its own queue.)
type NIC struct {
	ID  int
	sim *sim.Simulator

	// rx[head:] is the receive queue. Poll advances head; Inject compacts
	// the live packets to the front before the array would have to grow,
	// so after warm-up the ring never reallocates.
	rx   []Packet
	head int

	// IntrEnabled arms interrupt generation: the NIC raises OnAssert on an
	// empty→non-empty transition (NAPI-style moderation, so a busy queue
	// generates one interrupt per burst, not per packet).
	IntrEnabled bool
	// OnAssert fires the NIC's interrupt message (wired by the experiment
	// to the IOAPIC / forwarding vector).
	OnAssert func()

	Received, Dropped, Asserts uint64
}

// NewNIC creates a NIC on the simulator.
func NewNIC(s *sim.Simulator, id int) *NIC { return &NIC{ID: id, sim: s} }

// Inject delivers a packet from the wire into the receive ring.
//
//xui:noalloc
func (n *NIC) Inject(p Packet) {
	depth := n.Len()
	if depth >= RingSize {
		n.Dropped++
		return
	}
	if len(n.rx) == cap(n.rx) && n.head > 0 {
		copy(n.rx, n.rx[n.head:])
		n.rx = n.rx[:depth]
		n.head = 0
	}
	wasEmpty := depth == 0
	n.rx = append(n.rx, p)
	n.Received++
	if wasEmpty && n.IntrEnabled && n.OnAssert != nil {
		n.Asserts++
		n.OnAssert()
	}
}

// Poll removes up to max packets (rte_eth_rx_burst). The returned slice
// is a view of the ring, valid until the next Inject.
//
//xui:noalloc
func (n *NIC) Poll(max int) []Packet {
	depth := n.Len()
	if depth == 0 || max <= 0 {
		return nil
	}
	if max > depth {
		max = depth
	}
	out := n.rx[n.head : n.head+max : n.head+max]
	n.head += max
	if n.head == len(n.rx) {
		n.rx, n.head = n.rx[:0], 0
	}
	return out
}

// Len returns the queue depth.
func (n *NIC) Len() int { return len(n.rx) - n.head }

// Generator produces packets with exponential inter-arrival times
// (bursty, per §5.4) and uniformly random routable destinations.
type Generator struct {
	sim     *sim.Simulator
	rng     *sim.RNG
	nic     *NIC
	meanGap float64
	carry   float64 // fractional cycles truncated from previous gaps
	ev      *sim.Event
	fire    sim.Handler // g.inject, bound once
	nextID  uint64
	stopped bool
}

// StartGenerator begins injecting packets into nic with the given mean
// inter-arrival gap. Fractional cycles truncated from each integer-cycle
// arrival are carried into the next draw, so the offered packet rate is
// unbiased even at small mean gaps.
func StartGenerator(s *sim.Simulator, nic *NIC, meanGap sim.Time, seed uint64) *Generator {
	g := &Generator{sim: s, rng: sim.NewRNG(seed), nic: nic, meanGap: float64(meanGap)}
	g.fire = g.inject
	g.arm()
	return g
}

//xui:noalloc
func (g *Generator) arm() {
	exact := g.rng.Exp(g.meanGap) + g.carry
	gap := sim.Time(exact)
	g.carry = exact - float64(gap)
	g.ev = g.sim.After(gap, g.fire)
}

// inject puts the next packet on the wire and draws the following gap.
func (g *Generator) inject(now sim.Time) {
	if g.stopped {
		return
	}
	g.nextID++
	g.nic.Inject(Packet{ID: g.nextID, Arrived: now, DstIP: uint32(g.rng.Uint64())})
	g.arm()
}

// Stop halts the generator.
func (g *Generator) Stop() {
	g.stopped = true
	if g.ev != nil {
		g.sim.Cancel(g.ev)
	}
}

// Per-packet and per-poll costs, in cycles, for the l3fwd fast path
// (descriptor fetch, header parse, LPM lookup, descriptor write-back) and
// an empty rx_burst.
const (
	PacketCost    sim.Time = 500
	EmptyPollCost sim.Time = 50
	Burst                  = 32
)

// Mode selects how l3fwd learns about arriving packets.
type Mode uint8

const (
	// PollMode busy-polls every queue round-robin (DPDK default).
	PollMode Mode = iota
	// InterruptMode halts until a forwarded xUI interrupt announces work,
	// and re-polls all queues before returning from the handler (§6.2.2).
	InterruptMode
	// MwaitMode idles in mwait monitoring the receive ring's cache line.
	// It matches xUI's efficiency — but hardware can monitor only a single
	// line, so this mode supports exactly one queue (§2: "processors offer
	// no way to idle (e.g. mwait) on more than a single queue").
	MwaitMode
)

func (m Mode) String() string {
	switch m {
	case PollMode:
		return "poll"
	case InterruptMode:
		return "xui"
	case MwaitMode:
		return "mwait"
	}
	return "mode?"
}

// MwaitWakeCost is the monitor-wake exit latency charged per mwait wakeup.
const MwaitWakeCost sim.Time = 400

// L3Fwd is the forwarding application bound to one core.
type L3Fwd struct {
	sim   *sim.Simulator
	table *lpm.Table
	nics  []*NIC
	vcore *core.VCore
	mode  Mode

	Latency   *stats.Histogram
	Forwarded uint64
	NoRoute   uint64

	running  bool // handler/poll chain active (interrupt mode)
	stopped  bool
	intrBusy stats.Busy

	// Event handlers, bound once in NewL3Fwd so the per-round and
	// per-burst scheduling allocates nothing.
	pollFn, drainFn, verifyFn, handleFn sim.Handler
}

// NewL3Fwd builds the application. In InterruptMode the caller must route
// each NIC's interrupt (via forwarding) to vcore's handler and call
// HandleInterrupt from it, as RouteInterrupts does.
func NewL3Fwd(s *sim.Simulator, table *lpm.Table, nics []*NIC, v *core.VCore, mode Mode) (*L3Fwd, error) {
	if len(nics) == 0 {
		return nil, fmt.Errorf("netsim: no NICs")
	}
	l := &L3Fwd{
		sim:     s,
		table:   table,
		nics:    nics,
		vcore:   v,
		mode:    mode,
		Latency: stats.NewHistogram(),
	}
	l.pollFn, l.drainFn, l.verifyFn, l.handleFn = l.pollRound, l.drain, l.rearm, l.HandleInterrupt
	switch mode {
	case InterruptMode:
		for _, n := range nics {
			n.IntrEnabled = true
		}
	case MwaitMode:
		if len(nics) != 1 {
			return nil, fmt.Errorf("netsim: mwait can monitor a single cache line; %d queues given (§2)", len(nics))
		}
		n := nics[0]
		n.IntrEnabled = true // reused as "monitor armed"
		n.OnAssert = func() {
			// Monitor hit: the core leaves mwait after the wake latency,
			// then drains like the interrupt handler would.
			l.vcore.Account.Charge(core.CatNotify, uint64(MwaitWakeCost))
			l.sim.After(MwaitWakeCost, l.handleFn)
		}
	}
	return l, nil
}

// RouteInterrupts wires InterruptMode delivery the way the kernel sets up
// device forwarding (§4.5, one device/user pair per vector): NIC i asserts
// GSI i of io, which is programmed to forward vector firstVec+i to the
// application's core, and the core's user handler calls HandleInterrupt.
func (l *L3Fwd) RouteInterrupts(io *apic.IOAPIC, firstVec uint8) {
	v := l.vcore
	for i, n := range l.nics {
		gsi, vec := i, firstVec+uint8(i)
		io.Program(gsi, apic.Redirection{Dest: uint32(v.ID), Vector: vec})
		v.APIC.EnableForwarding(vec)
		v.APIC.ActivateVector(vec)
		n.OnAssert = func() { _ = io.Assert(gsi) }
	}
	v.Handler = func(now sim.Time, _ uintr.Vector, _ core.Mechanism) { l.HandleInterrupt(now) }
}

// Start launches the poll loop (PollMode only; InterruptMode is driven by
// HandleInterrupt).
func (l *L3Fwd) Start() {
	if l.mode == PollMode {
		l.sim.After(1, l.pollFn)
	}
}

// Stop ends processing (poll loop unschedules at the next round).
func (l *L3Fwd) Stop() { l.stopped = true }

// pollRound performs one round-robin pass over all queues, charging every
// cycle to either packet processing or empty polling — the core is never
// idle (Fig. 8: "polling always utilizes the entire core").
//
// A pass that found every queue empty fast-forwards: the rounds that
// would start strictly before the simulator's Horizon are charged in one
// step, and the next event is the first round of the same grid at or
// after it. That is exact. Nothing fires before the horizon, so those
// rounds could only see empty rings. The landing round is scheduled now,
// after every event already pending, just as the last skipped round
// would have scheduled it, so it keeps its FIFO place among the events
// of its cycle.
//
//xui:noalloc
func (l *L3Fwd) pollRound(now sim.Time) {
	if l.stopped {
		return
	}
	var busy sim.Time
	work := false
	for _, n := range l.nics {
		pkts := n.Poll(Burst)
		if len(pkts) == 0 {
			busy += EmptyPollCost
			l.vcore.Account.Charge(core.CatPoll, uint64(EmptyPollCost))
			continue
		}
		work = true
		busy += l.process(now+busy, pkts)
	}
	if !work {
		busy += l.skipIdle(now, busy)
	}
	l.sim.After(busy, l.pollFn)
}

// skipIdle charges, in one step, the idle rounds of length idle that
// would start after now and strictly before the horizon, and returns the
// cycles they span. There is no skip when another event is due this
// cycle (horizon == now) or when nothing bounds the loop (a horizon near
// Never, where the landing round would overflow).
//
//xui:noalloc
func (l *L3Fwd) skipIdle(now, idle sim.Time) sim.Time {
	h := l.sim.Horizon()
	if h <= now || h > sim.Never-idle {
		return 0
	}
	k := (h - now - 1) / idle
	if k > 0 {
		l.vcore.Account.Charge(core.CatPoll, uint64(k*idle))
	}
	return k * idle
}

// process forwards a burst sequentially, returning the cycles consumed.
func (l *L3Fwd) process(start sim.Time, pkts []Packet) sim.Time {
	var busy sim.Time
	for _, p := range pkts {
		busy += PacketCost
		if _, ok := l.table.Lookup(p.DstIP); ok {
			l.Forwarded++
		} else {
			l.NoRoute++
		}
		done := start + busy
		l.Latency.Record(uint64(done - p.Arrived))
	}
	l.vcore.Account.Charge(core.CatWork, uint64(busy))
	return busy
}

// HandleInterrupt is invoked from the core's user interrupt handler when a
// NIC's forwarded vector is delivered. It drains all queues (re-polling
// before return), then re-arms interrupts.
func (l *L3Fwd) HandleInterrupt(now sim.Time) {
	if l.running || l.stopped {
		return // already draining; the pending work will be seen
	}
	l.running = true
	for _, n := range l.nics {
		n.IntrEnabled = false
	}
	l.intrBusy.MarkBusy(uint64(now))
	l.drain(now)
}

//xui:noalloc
func (l *L3Fwd) drain(now sim.Time) {
	if l.stopped {
		l.running = false
		return
	}
	var busy sim.Time
	work := false
	for _, n := range l.nics {
		pkts := n.Poll(Burst)
		if len(pkts) == 0 {
			continue
		}
		work = true
		busy += l.process(now+busy, pkts)
	}
	if work {
		l.sim.After(busy, l.drainFn)
		return
	}
	// All queues observed empty: one final verification pass costs a poll
	// round, then interrupts are re-armed and the handler returns.
	verify := EmptyPollCost * sim.Time(len(l.nics))
	l.vcore.Account.Charge(core.CatPoll, uint64(verify))
	l.sim.After(verify, l.verifyFn)
}

// rearm ends the handler after the final verification pass: interrupts
// are re-armed, and a packet that slipped in meanwhile is handled as if
// the device re-asserted.
func (l *L3Fwd) rearm(end sim.Time) {
	l.running = false
	l.intrBusy.MarkIdle(uint64(end))
	race := false
	for _, n := range l.nics {
		n.IntrEnabled = true
		if n.Len() > 0 {
			race = true
		}
	}
	if race && !l.stopped {
		l.HandleInterrupt(end)
	}
}

// BusyCycles returns cycles spent in the interrupt-driven processing path
// (InterruptMode utilization accounting).
func (l *L3Fwd) BusyCycles(now sim.Time) uint64 { return l.intrBusy.BusyCycles(uint64(now)) }
