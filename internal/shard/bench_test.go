package shard

import (
	"testing"

	"xui/internal/sim"
)

// BenchmarkEpochBarrier measures one full epoch cycle — window
// computation, per-shard RunBefore, mailbox drain, barrier — on a 4-shard
// engine with one resident event per shard and no cross traffic. This is
// the fixed overhead every epoch pays.
func BenchmarkEpochBarrier(b *testing.B) {
	const n = 4
	e := New(1, n, 100)
	for i := 0; i < n; i++ {
		i := i
		var tick func(now sim.Time)
		tick = func(now sim.Time) { e.Shard(i).After(100, tick) }
		e.Shard(i).Schedule(1, tick)
	}
	// Prime the heaps and mailbox storage.
	e.RunUntil(1_000)
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Shard(0).Now()
	for i := 0; i < b.N; i++ {
		e.RunUntil(start + sim.Time(i+1)*100)
	}
}

// BenchmarkCrossShardSend measures the mailbox push + barrier merge +
// destination-schedule path for one cross-shard message per epoch.
func BenchmarkCrossShardSend(b *testing.B) {
	e := New(1, 2, 100)
	hops := uint64(0)
	// Prebuilt ping-pong handlers so the steady state schedules no new
	// closures — what the allocs/op column pins is the mailbox path.
	var h0, h1 sim.Handler
	h0 = func(now sim.Time) { hops++; e.Send(0, 1, now+100, h1) }
	h1 = func(now sim.Time) { hops++; e.Send(1, 0, now+100, h0) }
	e.Shard(0).Schedule(1, h0)
	e.RunUntil(1_000)
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Shard(0).Now()
	for i := 0; i < b.N; i++ {
		e.RunUntil(start + sim.Time(i+1)*100)
	}
	_ = hops
}
