// Package kvstore is the RocksDB stand-in for the paper's preemptive-
// scheduling evaluation (§5.3): a real LSM-flavoured key-value store — a
// skiplist memtable in front of immutable sorted runs, with put, get and
// scan and no deletes (the paper's load is GET/SCAN only) — together with
// the calibrated service-time model the Tier-2 runtime charges per request
// (99.5 % GET at 1.2 µs, 0.5 % SCAN at 580 µs).
package kvstore

import (
	"bytes"
	"sort"

	"xui/internal/sim"
)

const maxLevel = 16

type node struct {
	key  []byte
	val  []byte
	next [maxLevel]*node
}

// skiplist is a classic randomized skiplist keyed by byte slices.
type skiplist struct {
	head  *node
	level int
	size  int
	rng   *sim.RNG
}

func newSkiplist(rng *sim.RNG) *skiplist {
	return &skiplist{head: &node{}, level: 1, rng: rng}
}

func (s *skiplist) randomLevel() int {
	l := 1
	for l < maxLevel && s.rng.Bool(0.25) {
		l++
	}
	return l
}

// put inserts or updates key.
func (s *skiplist) put(key, val []byte) {
	var update [maxLevel]*node
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		n.val = val
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &node{key: append([]byte(nil), key...), val: val}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.size++
}

// get returns the value for key.
func (s *skiplist) get(key []byte) ([]byte, bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		return n.val, true
	}
	return nil, false
}

// seek returns the first node with key ≥ start, nil if there is none.
func (s *skiplist) seek(start []byte) *node {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, start) < 0 {
			x = x.next[i]
		}
	}
	return x.next[0]
}

// scan walks keys ≥ start in order, calling fn until it returns false.
func (s *skiplist) scan(start []byte, fn func(key, val []byte) bool) {
	for n := s.seek(start); n != nil; n = n.next[0] {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// run is an immutable sorted run (a flushed memtable).
type run struct {
	keys [][]byte
	vals [][]byte
}

func (r *run) get(key []byte) ([]byte, bool) {
	i := sort.Search(len(r.keys), func(i int) bool {
		return bytes.Compare(r.keys[i], key) >= 0
	})
	if i < len(r.keys) && bytes.Equal(r.keys[i], key) {
		return r.vals[i], true
	}
	return nil, false
}

// Store is the key-value store. Writes (Put, Flush) are not safe for
// concurrent use; the simulated runtime serializes access
// per core, as Aspen does. Get and Scan only read, so a filled store that
// is no longer written can be shared by concurrent readers.
type Store struct {
	mem  *skiplist
	runs []*run // newest first
	rng  *sim.RNG

	// FlushThreshold is the memtable size that triggers a flush into an
	// immutable run.
	FlushThreshold int
}

// Open creates an empty store.
func Open(seed uint64) *Store {
	rng := sim.NewRNG(seed)
	return &Store{mem: newSkiplist(rng), rng: rng, FlushThreshold: 4096}
}

// Put inserts or updates a key with a copy of val.
func (st *Store) Put(key, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	st.mem.put(key, cp)
	if st.mem.size >= st.FlushThreshold {
		st.Flush()
	}
}

// Get returns the newest value for key.
func (st *Store) Get(key []byte) ([]byte, bool) {
	if v, ok := st.mem.get(key); ok {
		return v, true
	}
	for _, r := range st.runs {
		if v, ok := r.get(key); ok {
			return v, true
		}
	}
	return nil, false
}

// runCursor is Scan's position in one run's window.
type runCursor struct {
	keys, vals [][]byte
	pos        int
}

// maxStackRuns is how many runs Scan merges with cursors on the stack;
// more runs still scan correctly, at one allocation per call.
const maxStackRuns = 8

// Scan visits up to limit keys ≥ start, newest version of each, in order.
// It merges the memtable, walked in place, with a window of each run,
// keeping its cursors on the stack: a call allocates nothing while the
// store has at most maxStackRuns runs.
func (st *Store) Scan(start []byte, limit int, fn func(key, val []byte)) int {
	// No source can contribute more than its first limit keys ≥ start,
	// so each run's window stops there.
	mem := st.mem.seek(start)
	var buf [maxStackRuns]runCursor
	curs := buf[:0]
	for _, r := range st.runs {
		i := sort.Search(len(r.keys), func(i int) bool {
			return bytes.Compare(r.keys[i], start) >= 0
		})
		hi := min(i+limit, len(r.keys))
		curs = append(curs, runCursor{keys: r.keys[i:hi], vals: r.vals[i:hi]})
	}
	// K-way merge, newest source wins ties: the memtable, then runs in
	// order (newest first).
	n := 0
	var last []byte
	for n < limit {
		best := -1 // the memtable, or an index into curs
		var bk []byte
		have := mem != nil
		if have {
			bk = mem.key
		}
		for ci := range curs {
			c := &curs[ci]
			if c.pos < len(c.keys) && (!have || bytes.Compare(c.keys[c.pos], bk) < 0) {
				best, bk, have = ci, c.keys[c.pos], true
			}
		}
		if !have {
			break
		}
		var k, v []byte
		if best < 0 {
			k, v = mem.key, mem.val
			mem = mem.next[0]
		} else {
			c := &curs[best]
			k, v = c.keys[c.pos], c.vals[c.pos]
			c.pos++
		}
		if last != nil && bytes.Equal(k, last) {
			continue // older version of an already-emitted key
		}
		last = k
		fn(k, v)
		n++
	}
	return n
}

// Flush freezes the memtable into an immutable sorted run.
func (st *Store) Flush() {
	if st.mem.size == 0 {
		return
	}
	r := &run{}
	st.mem.scan(nil, func(k, v []byte) bool {
		r.keys = append(r.keys, k)
		r.vals = append(r.vals, v)
		return true
	})
	st.runs = append([]*run{r}, st.runs...)
	st.mem = newSkiplist(st.rng)
}
