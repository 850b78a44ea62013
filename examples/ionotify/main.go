// IO notification: receive packets by busy polling vs. xUI interrupt
// forwarding (§4.5) and compare where the core's cycles go.
//
// A NIC receives 64-byte packets with bursty (exponential) inter-arrival
// times at 30 % of the core's forwarding capacity. The forwarding
// application looks every destination up in a real LPM table with 16,000
// routes, which answers exactly as DPDK's DIR-24-8. Polling burns the whole core; with interrupt
// forwarding the NIC's MSI vector is routed straight to the user thread,
// and the untouched cycles are free for other work or power savings.
//
//	go run ./examples/ionotify
package main

import (
	"fmt"

	"xui/internal/core"
	"xui/internal/lpm"
	"xui/internal/netsim"
	"xui/internal/sim"
)

func run(mode netsim.Mode) {
	s := sim.New(7)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	v := m.Cores[0]
	table := lpm.GenerateTable(16000, 3)
	nic := netsim.NewNIC(s, 0)
	l3, err := netsim.NewL3Fwd(s, table, []*netsim.NIC{nic}, v, mode)
	if err != nil {
		panic(err)
	}
	if mode == netsim.InterruptMode {
		// Route the NIC's interrupt to the user thread: the kernel
		// programs the IOAPIC and enables forwarding for vector 0x31.
		l3.RouteInterrupts(m.IOAPIC, 0x31)
	}

	// 30 % load.
	capacity := float64(sim.CyclesPerSecond) / float64(netsim.PacketCost)
	gap := sim.Time(float64(sim.CyclesPerSecond) / (capacity * 0.30))
	gen := netsim.StartGenerator(s, nic, gap, 99)
	l3.Start()

	const horizon = 20 * sim.Millisecond
	s.RunUntil(horizon)
	gen.Stop()
	l3.Stop()

	total := float64(horizon)
	net := 100 * float64(v.Account.Get(core.CatWork)) / total
	poll := 100 * float64(v.Account.Get(core.CatPoll)) / total
	notify := 100 * float64(v.Account.Get(core.CatNotify)) / total
	free := 100 - net - poll - notify
	if free < 0 {
		free = 0
	}
	fmt.Printf("%-5v: forwarded %7d pkts | net %5.1f%%  poll %5.1f%%  notify %4.1f%%  free %5.1f%% | p95 %.2f µs\n",
		mode, l3.Forwarded, net, poll, notify, free, sim.Time(l3.Latency.Percentile(95)).Micros())
}

func main() {
	fmt.Println("l3fwd, 1 NIC, 16k-route LPM, 30% load, 20 ms simulated:")
	run(netsim.PollMode)
	run(netsim.InterruptMode)
}
