package cpu

import "xui/internal/isa"

// The fast engine. The interpreted engine (core.go) rediscovers
// readiness every cycle by scanning the issue queue and re-checking
// every waiting op's producers — correct, and O(IQ) per cycle even when
// nothing changes. The fast engine computes the same function with
// event-driven wakeup: each op registers with its unresolved producers
// at rename, producers wake their consumers when they complete, and
// issue walks only the ready set.
//
// Why that is exact and not an approximation: writeback runs before
// issue within a cycle and every latency is at least one cycle, so at
// issue time a producer satisfies the interpreted engine's depDone
// exactly when it has transitioned to stDone (the stIssued-and-doneAt
// case cannot be observed from issue). Readiness is therefore a pure
// function of completion events, which is what the wakeup lists carry.
//
// Staleness: squashes invalidate entries out from under the lists. All
// references held here are (seq, gen) pairs validated against the ROB
// slot before use — see robEntry.gen — and dropped lazily.

// entryRef is a validated reference to an in-flight ROB entry.
type entryRef struct {
	seq uint64
	gen uint64
}

// enqueueFast registers a freshly renamed entry with the wakeup
// machinery: count unresolved producers, subscribe to their completion,
// and enter the ready list if there are none. Serialize ops also join
// the serialization FIFO that gates younger issue.
//
//xui:noalloc
func (c *Core) enqueueFast(e *robEntry) {
	slot := e.seq & c.entMask
	c.waiters[slot] = c.waiters[slot][:0]
	n := c.linkDep(e.dep1, e.seq, e.gen)
	n += c.linkDep(e.dep2, e.seq, e.gen)
	n += c.linkDep(e.depSP, e.seq, e.gen)
	c.pend[slot] = n
	if e.op.Class == isa.Serialize {
		c.serQ = append(c.serQ, entryRef{seq: e.seq, gen: e.gen})
	}
	if n == 0 {
		c.insertReady(entryRef{seq: e.seq, gen: e.gen})
	}
}

// linkDep subscribes consumer (seq, gen) to producer dep's completion,
// returning 1 if the producer is still outstanding. The cases mirror
// the interpreted engine's depDone, minus the stIssued-and-done clause
// that is unobservable at rename time (writeback precedes fetch).
//
//xui:noalloc
func (c *Core) linkDep(dep, seq, gen uint64) int32 {
	if dep == 0 || dep < c.head {
		return 0
	}
	pslot := dep & c.entMask
	p := &c.ent[pslot]
	if p.seq != dep || p.state == stDone {
		return 0
	}
	c.waiters[pslot] = append(c.waiters[pslot], entryRef{seq: seq, gen: gen})
	return 1
}

// wakeWaiters resolves one producer completion: every subscribed
// consumer still live drops a pending count; those reaching zero become
// ready. Called from writeback when the entry at pseq goes stDone.
//
//xui:noalloc
func (c *Core) wakeWaiters(pseq uint64) {
	slot := pseq & c.entMask
	ws := c.waiters[slot]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		cslot := w.seq & c.entMask
		ce := &c.ent[cslot]
		if ce.seq != w.seq || ce.gen != w.gen || ce.state != stWaiting {
			continue // squashed and possibly re-renamed; stale subscription
		}
		if c.pend[cslot] > 0 {
			c.pend[cslot]--
			if c.pend[cslot] == 0 {
				c.insertReady(w)
			}
		}
	}
	c.waiters[slot] = ws[:0]
}

// insertReady adds w to the ready list keeping ascending seq order, so
// issueFast's walk visits ready ops oldest-first exactly like the
// interpreted engine's fetch-ordered scan. Insertion scans from the
// tail: at rename the new seq is usually the maximum (O(1)); wakeups
// insert mid-list over a list bounded by the issue backlog.
//
//xui:noalloc
func (c *Core) insertReady(w entryRef) {
	i := len(c.readyList)
	c.readyList = append(c.readyList, entryRef{})
	for i > 0 && c.readyList[i-1].seq > w.seq {
		c.readyList[i] = c.readyList[i-1]
		i--
	}
	c.readyList[i] = w
}

// serGate returns the seq of the oldest still-waiting Serialize op, or
// MaxUint64 when none is outstanding. Ops younger than the gate must
// not issue — the interpreted engine gets this from its in-order scan
// setting blocked at the serializer; here the FIFO carries it.
//
//xui:noalloc
func (c *Core) serGate() uint64 {
	for c.serHead < len(c.serQ) {
		w := c.serQ[c.serHead]
		e := &c.ent[w.seq&c.entMask]
		if e.seq == w.seq && e.gen == w.gen && e.state == stWaiting {
			return w.seq
		}
		c.serHead++ // issued, committed or squashed; drop from the FIFO
	}
	if c.serHead > 0 {
		c.serQ = c.serQ[:0]
		c.serHead = 0
	}
	return ^uint64(0)
}

// portPool maps each op class to its issue-port pool index, replacing
// a per-op class switch with one table load: 0 = int ALU (shared by
// Nop/IntAlu/Branch), 1 = int multiplier, 2 = FPU (FPAlu/FPMult),
// 3 = load port, 4 = store port. Serialize never consults the table —
// issueFast special-cases it by class before the lookup.
var portPool = [isa.NumClasses]uint8{
	isa.Nop:     0,
	isa.IntAlu:  0,
	isa.Branch:  0,
	isa.IntMult: 1,
	isa.FPAlu:   2,
	isa.FPMult:  2,
	isa.Load:    3,
	isa.Store:   4,
}

// issueFast is the wakeup-scheduler issue stage: walk the ready list in
// seq order, apply the same width, functional-unit and serialization
// constraints as the interpreted scan, and start execution. Memory side
// effects happen in seq order among this cycle's issues, as in the
// scan.
//
//xui:noalloc
func (c *Core) issueFast() {
	if c.serializing > 0 || len(c.readyList) == 0 {
		return
	}
	gate := c.serGate()
	avail := [5]int{c.cfg.IntALUs, c.cfg.IntMults, c.cfg.FPUs, c.cfg.LoadPorts, c.cfg.StorePorts}
	issued := 0
	out := c.readyList[:0] // compact in place; writes trail reads
	for li := 0; li < len(c.readyList); li++ {
		w := c.readyList[li]
		e := &c.ent[w.seq&c.entMask]
		if e.seq != w.seq || e.gen != w.gen || e.state != stWaiting {
			continue // squashed; drop
		}
		if issued >= c.cfg.IssueWidth || w.seq > gate {
			out = append(out, w)
			continue
		}
		cl := e.op.Class
		if cl == isa.Serialize {
			// Issues only from the head (all older committed).
			if w.seq != c.head {
				out = append(out, w)
				continue
			}
		} else if p := portPool[cl]; avail[p] == 0 {
			out = append(out, w)
			continue
		} else {
			avail[p]--
		}
		lat := int(e.op.Lat)
		if cl == isa.Load {
			if e.op.Is(isa.FShared) {
				lat = c.mem.SharedLoad(e.op.Addr)
			} else {
				lat = c.mem.Load(e.op.Addr)
			}
			lat += int(e.op.Lat) // extra modelled cost on top of cache
		} else if cl == isa.Store {
			if e.op.Is(isa.FShared) {
				c.mem.SharedStore(e.op.Addr)
			} else {
				c.mem.Store(e.op.Addr)
			}
		}
		e.state = stIssued
		e.doneAt = c.cycle + uint64(lat)
		c.scheduleDone(e.doneAt, w.seq)
		c.iqCount--
		issued++
		c.didWork = true
		if cl == isa.Serialize {
			c.serializing++
			// Nothing younger issues while it executes; keep the rest.
			out = append(out, c.readyList[li+1:]...)
			c.readyList = out
			return
		}
	}
	c.readyList = out
}

// arrivalSoon reports whether a known interrupt arrival lies within the
// fidelity window, forcing fetch back to the per-op path.
//
//xui:noalloc
func (c *Core) arrivalSoon() bool {
	horizon := c.cycle + c.fidelity
	if c.periodGen != nil && c.periodNext <= horizon {
		return true
	}
	return c.arrHead < len(c.arrivals) && c.arrivals[c.arrHead].at <= horizon
}

// fetchFast renames decoded program ops at basic-block granularity.
// Within a clean block (no serializers, barriers, mispredicting
// branches or SP traffic — see isa.Block) the only per-op work left is
// the load/store-queue capacity check and the rename itself; special
// ops route through the general rename one at a time. Reached only
// with no injection in progress and no arrival inside the fidelity
// window; renames are identical to the per-op path's, so results do
// not depend on which path ran.
//
//xui:noalloc
func (c *Core) fetchFast() {
	dec := c.dec
	width := c.cfg.FetchWidth
	for width > 0 {
		if c.barrierSeq != 0 {
			if !c.barrierResolved() {
				return
			}
			c.barrierSeq = 0
		}
		if c.fetchPos >= uint64(len(dec.Ops)) {
			c.progDone = true
			return
		}
		robRoom := c.cfg.ROBSize - int(c.tail-c.head)
		iqRoom := c.cfg.IQSize - c.iqCount
		if robRoom <= 0 || iqRoom <= 0 {
			return
		}
		b := c.locateBlock()
		n := width
		if robRoom < n {
			n = robRoom
		}
		if iqRoom < n {
			n = iqRoom
		}
		if rem := int(uint64(b.End) - c.fetchPos); rem < n {
			n = rem
		}
		if !b.Clean {
			// Singleton special op through the general rename.
			op := dec.Ops[c.fetchPos]
			switch op.Class {
			case isa.Load:
				if c.lqCount >= c.cfg.LQSize {
					return
				}
			case isa.Store:
				if c.sqCount >= c.cfg.SQSize {
					return
				}
			}
			c.fetchPos++
			c.rename(op, fetchSrc{program: true, pos: c.fetchPos - 1})
			width--
			continue
		}
		for i := 0; i < n; i++ {
			op := dec.Ops[c.fetchPos]
			// One class test serves both the queue-capacity check and the
			// queue accounting renameProgram would otherwise repeat.
			if cl := op.Class; cl == isa.Load {
				if c.lqCount >= c.cfg.LQSize {
					return
				}
				c.lqCount++
			} else if cl == isa.Store {
				if c.sqCount >= c.cfg.SQSize {
					return
				}
				c.sqCount++
			}
			c.renameProgram(op)
			width--
		}
	}
}

// locateBlock returns the block containing fetchPos, advancing the
// cursor sequentially and falling back to binary search after a
// redirect (mispredict rewind, flush refetch).
//
//xui:noalloc
func (c *Core) locateBlock() *isa.Block {
	bs := c.dec.Blocks
	pos := uint32(c.fetchPos)
	if b := &bs[c.blockIdx]; pos >= b.Start && pos < b.End {
		return b
	}
	if c.blockIdx+1 < len(bs) {
		if b := &bs[c.blockIdx+1]; pos >= b.Start && pos < b.End {
			c.blockIdx++
			return b
		}
	}
	lo, hi := 0, len(bs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].End <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.blockIdx = lo
	return &bs[lo]
}

// renameProgram is rename specialized for clean-block program ops: no
// SP tracking, no barriers, no serializers, no injection bookkeeping —
// the block guarantees none apply.
//
//xui:noalloc
func (c *Core) renameProgram(op isa.UOp) {
	pos := c.fetchPos
	c.fetchPos++
	seq := c.tail
	c.tail++
	e := &c.ent[seq&c.entMask]
	c.genCtr++
	// Field writes, not a composite literal: the literal forms a
	// temporary and bulk-copies it into the slot, which dominated this
	// function's profile. dep1/dep2 are assigned below; depSP must be
	// cleared explicitly (enqueueFast links it); doneAt may stay stale —
	// it is only read for stIssued entries and issue always rewrites it.
	e.seq = seq
	e.gen = c.genCtr
	e.streamPos = pos
	e.op = op
	e.depSP = 0
	e.state = stWaiting
	c.iqCount++
	c.fetchedTotal++
	c.didWork = true
	c.posSeq[pos&c.posMask] = seq
	e.dep1 = c.progDep(pos, op.Dep1)
	e.dep2 = c.progDep(pos, op.Dep2)
	// enqueueFast, minus the depSP link a clean-block op never has
	// (fetchFast already did the load/store queue accounting).
	slot := seq & c.entMask
	c.waiters[slot] = c.waiters[slot][:0]
	n := c.linkDep(e.dep1, seq, e.gen)
	n += c.linkDep(e.dep2, seq, e.gen)
	c.pend[slot] = n
	if n == 0 {
		c.insertReady(entryRef{seq: seq, gen: e.gen})
	}
}
