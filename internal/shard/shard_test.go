package shard

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"xui/internal/sim"
)

// logEntry records one model event for parity comparison: which shard
// fired it, when, and a tag distinguishing local work from cross arrivals.
type logEntry struct {
	Shard int
	When  sim.Time
	Tag   int
}

// runMesh drives a 4-shard mesh workload: every shard runs a jittered
// local event chain off its own RNG stream and periodically sends to its
// ring neighbor at exactly the lookahead latency (the tightest legal
// cross-shard send). Returns per-shard event logs plus engine counters.
func runMesh(t *testing.T, horizon sim.Time) ([][]logEntry, uint64, uint64, uint64) {
	t.Helper()
	const n = 4
	const lookahead = 100
	e := New(42, n, lookahead)
	logs := make([][]logEntry, n)

	var local func(i int) sim.Handler
	local = func(i int) sim.Handler {
		return func(now sim.Time) {
			logs[i] = append(logs[i], logEntry{i, now, 0})
			r := e.Shard(i).RNG().Uint64()
			if now >= horizon {
				return
			}
			e.Shard(i).After(1+sim.Time(r%37), local(i))
			if r%5 == 0 {
				dst := (i + 1) % n
				e.Send(i, dst, now+lookahead, func(at sim.Time) {
					logs[dst] = append(logs[dst], logEntry{dst, at, 1})
				})
			}
		}
	}
	for i := 0; i < n; i++ {
		e.Shard(i).Schedule(sim.Time(i+1), local(i))
	}
	e.RunUntil(horizon + 2*lookahead)
	for i := 0; i < n; i++ {
		if got := e.Shard(i).Now(); got != horizon+2*lookahead {
			t.Fatalf("shard %d clock %d, want %d", i, got, horizon+2*lookahead)
		}
	}
	return logs, e.Fired(), e.Sent(), e.Epochs()
}

// TestEpochParity pins the mesh's event logs and engine counters to the
// values recorded when epochs could also run on a pool of worker
// goroutines (they were identical at every pool width), so the epoch
// schedule and the (when, src, seq) merge order cannot drift.
func TestEpochParity(t *testing.T) {
	logs, fired, sent, epochs := runMesh(t, 50_000)
	if fired != 12700 || sent != 2122 || epochs != 488 {
		t.Fatalf("counters fired=%d sent=%d epochs=%d, want 12700, 2122, 488", fired, sent, epochs)
	}
	h := sha256.New()
	for _, l := range logs {
		for _, e := range l {
			fmt.Fprintf(h, "%d %d %d\n", e.Shard, e.When, e.Tag)
		}
	}
	const want = "42c8f0a17951470d03dbb2dd5d61d6c9e4d529b6bda22c9889711d7a7373e1ce"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("mesh event log digest %s, want %s", got, want)
	}
}

// TestConservativeViolationPanics: a cross-shard send landing inside the
// current epoch means the model's latency undercuts the lookahead — the
// engine must refuse rather than silently reorder.
func TestConservativeViolationPanics(t *testing.T) {
	e := New(1, 2, 100)
	e.Shard(0).Schedule(10, func(now sim.Time) {
		e.Send(0, 1, now+1, func(sim.Time) {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead cross-shard send did not panic")
		}
	}()
	e.RunUntil(1000)
}

// TestSetupSend: sends before the run starts are scheduled directly
// (setup is single-goroutine) and still fire.
func TestSetupSend(t *testing.T) {
	e := New(1, 2, 50)
	var got sim.Time
	e.Send(0, 1, 7, func(now sim.Time) { got = now })
	e.RunUntil(100)
	if got != 7 {
		t.Fatalf("setup-phase send fired at %d, want 7", got)
	}
}

// TestRunQuiescent: Run drains chains that terminate, including the
// cross-shard tail.
func TestRunQuiescent(t *testing.T) {
	e := New(9, 3, 10)
	hops := 0
	var hop func(i int) sim.Handler
	hop = func(i int) sim.Handler {
		return func(now sim.Time) {
			hops++
			if hops >= 30 {
				return
			}
			e.Send(i, (i+1)%3, now+10, hop((i+1)%3))
		}
	}
	e.Shard(0).Schedule(1, hop(0))
	e.Run()
	if hops != 30 {
		t.Fatalf("quiescent run made %d hops, want 30", hops)
	}
	if e.Sent() != 29 {
		t.Fatalf("Sent() = %d, want 29", e.Sent())
	}
}

// TestSingleShard: one shard degenerates to the plain kernel — no epochs,
// direct sends, same clock semantics.
func TestSingleShard(t *testing.T) {
	e := New(3, 1, 1)
	fired := 0
	e.Shard(0).Schedule(5, func(sim.Time) { fired++ })
	e.Send(0, 0, 9, func(sim.Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 || e.Epochs() != 0 {
		t.Fatalf("single-shard run: fired=%d epochs=%d, want 2, 0", fired, e.Epochs())
	}
	if e.Shard(0).Now() != 20 {
		t.Fatalf("clock %d, want 20", e.Shard(0).Now())
	}
}

// TestMergeOrder: same-cycle arrivals from different source shards are
// delivered in (when, src, seq) order regardless of mailbox drain order.
func TestMergeOrder(t *testing.T) {
	e := New(7, 3, 100)
	var order []int
	// Shards 2 and 1 both send to shard 0, landing at the same cycle; the
	// lower source shard must deliver first, then sends from one shard in
	// sequence order.
	e.Shard(2).Schedule(10, func(now sim.Time) {
		e.Send(2, 0, 200, func(sim.Time) { order = append(order, 20) })
	})
	e.Shard(1).Schedule(10, func(now sim.Time) {
		e.Send(1, 0, 200, func(sim.Time) { order = append(order, 10) })
		e.Send(1, 0, 200, func(sim.Time) { order = append(order, 11) })
	})
	e.RunUntil(300)
	want := []int{10, 11, 20}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("merge order %v, want %v", order, want)
	}
}
