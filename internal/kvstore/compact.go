package kvstore

import "bytes"

// Deletion and compaction: the LSM half of the RocksDB stand-in. Deletes
// write tombstones (nil values) that shadow older versions across runs;
// Compact k-way-merges every run and the memtable into one run, dropping
// shadowed versions and garbage-collecting tombstones.

// tombstone is the stored marker for a deleted key. Values are copied on
// Put, so user data can never alias it.
var tombstone []byte // nil

// Delete removes a key by writing a tombstone.
func (st *Store) Delete(key []byte) {
	st.mem.put(key, tombstone)
	if st.mem.size >= st.FlushThreshold {
		st.Flush()
	}
}

// get-with-tombstones: Store.Get must treat a tombstone as "not found"
// while still stopping the search (the newest version wins). This replaces
// the pre-deletion Get logic.

// lookup returns (value, found, deleted).
func (st *Store) lookup(key []byte) ([]byte, bool, bool) {
	if v, ok := st.mem.get(key); ok {
		return v, v != nil, v == nil
	}
	for _, r := range st.runs {
		if v, ok := r.get(key); ok {
			return v, v != nil, v == nil
		}
	}
	return nil, false, false
}

// Compact merges the memtable and all runs into a single immutable run,
// keeping only the newest version of each key and dropping tombstones.
func (st *Store) Compact() {
	st.Flush()
	if len(st.runs) <= 1 {
		// A single run may still hold tombstones worth dropping.
		if len(st.runs) == 1 {
			st.runs[0] = dropTombstones(st.runs[0])
		}
		return
	}
	merged := &run{}
	pos := make([]int, len(st.runs))
	for {
		// Pick the smallest key; ties resolve to the lowest run index,
		// which is the newest run (runs are stored newest first), so the
		// newest version of each key wins.
		best := -1
		for ri, r := range st.runs {
			if pos[ri] >= len(r.keys) {
				continue
			}
			if best == -1 || bytes.Compare(r.keys[pos[ri]], st.runs[best].keys[pos[best]]) < 0 {
				best = ri
			}
		}
		if best == -1 {
			break
		}
		k := st.runs[best].keys[pos[best]]
		v := st.runs[best].vals[pos[best]]
		// Advance every cursor past this key (drops older versions).
		for ri, r := range st.runs {
			for pos[ri] < len(r.keys) && bytes.Equal(r.keys[pos[ri]], k) {
				pos[ri]++
			}
		}
		if v == nil {
			continue // tombstone: the key is gone from the merged run
		}
		merged.keys = append(merged.keys, k)
		merged.vals = append(merged.vals, v)
	}
	st.runs = []*run{merged}
}

func dropTombstones(r *run) *run {
	out := &run{}
	for i, k := range r.keys {
		if r.vals[i] == nil {
			continue
		}
		out.keys = append(out.keys, k)
		out.vals = append(out.vals, r.vals[i])
	}
	return out
}
