package obs

// Per-shard tracer lanes (DESIGN.md §13). The sharded Tier-2 engine gives
// every shard its own child Tracer so that shards record trace events with
// no cross-shard lock contention and — more importantly — so the merged
// event order is deterministic: the epoch coordinator absorbs each lane
// into the parent tracer at every barrier, in shard order. Since a shard's
// own recording order is deterministic and the barrier schedule is
// deterministic, the parent's event sequence is byte-identical at any
// worker count.

// NewLane returns a fresh buffered child tracer for one shard's
// epoch-local recording. A lane has no writer and no cap; it holds one
// epoch's events until the barrier absorbs it. A nil parent yields a nil
// lane, so a disabled trace stays disabled shard-locally too.
func (t *Tracer) NewLane() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{}
}

// AbsorbFrom moves every buffered event from child into t, preserving the
// child's recording order, and resets the child for the next epoch. The
// caller must guarantee the child is quiescent (no goroutine is recording
// into it) — the epoch barrier provides exactly that. The child must be a
// lane; absorbing a streaming tracer panics.
func (t *Tracer) AbsorbFrom(child *Tracer) {
	if t == nil || child == nil || t == child {
		return
	}
	child.mu.Lock()
	if child.stream != nil {
		child.mu.Unlock()
		panic("obs: AbsorbFrom child must be a lane")
	}
	evs := child.events
	child.events = evs[:0]
	child.mu.Unlock()
	for i := range evs {
		t.add(evs[i])
	}
}
