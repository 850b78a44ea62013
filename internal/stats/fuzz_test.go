package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// bucketIndexRef is the original O(64) shift-loop implementation, kept as
// the oracle for the bits.Len64 replacement.
func bucketIndexRef(subBits uint, v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	exp := 0
	for x := v; x >= 1<<(subBits+1); x >>= 1 {
		exp++
	}
	sub := v >> uint(exp)
	return (exp+1)<<subBits + int(sub) - (1 << subBits)
}

// TestBucketIndexEquivalence pins the bits.Len64 bucketIndex against the
// shift-loop oracle at every power-of-two boundary and its neighbours.
func TestBucketIndexEquivalence(t *testing.T) {
	h := NewHistogram()
	var vals []uint64
	for s := uint(0); s < 64; s++ {
		p := uint64(1) << s
		vals = append(vals, p-1, p, p+1)
	}
	vals = append(vals, 0, 31, 32, 33, 63, 64, 65, 100, 400, math.MaxUint64)
	for _, v := range vals {
		got, want := h.bucketIndex(v), bucketIndexRef(h.subBits, v)
		if got != want {
			t.Errorf("bucketIndex(%d) = %d, oracle %d", v, got, want)
		}
	}
}

// TestBucketLowInverse checks that bucketLow is the left inverse of
// bucketIndex: bucketLow(i) is the smallest value mapping to bucket i.
func TestBucketLowInverse(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 2048; i++ {
		lo := h.bucketLow(i)
		if lo == 0 && i > 0 {
			break // past the top representable bucket (lower bound overflowed)
		}
		if h.bucketIndex(lo) != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, lo, h.bucketIndex(lo))
		}
		if lo > 0 && h.bucketIndex(lo-1) >= i {
			t.Fatalf("bucketLow(%d)=%d is not the smallest value in its bucket", i, lo)
		}
	}
}

// fuzzValues decodes the fuzz input into a bounded value set.
func fuzzValues(data []byte) []uint64 {
	n := len(data) / 8
	if n > 512 {
		n = 512
	}
	vals := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, binary.LittleEndian.Uint64(data[i*8:]))
	}
	return vals
}

func seedBytes(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

// FuzzHistogramPercentile cross-checks Histogram.Percentile against
// exactPercentile on arbitrary value sets and quantiles. The histogram
// reports the lower bound of the bucket holding the rank-th value, so it
// must never exceed the exact nearest-rank value and must be within one
// sub-bucket width below it (relative error ≤ 1/2^subBits).
func FuzzHistogramPercentile(f *testing.F) {
	f.Add(seedBytes(42), uint16(990))                  // single value
	f.Add(seedBytes(100, 400), uint16(500))            // two octaves apart
	f.Add(seedBytes(math.MaxUint64), uint16(1000))     // max-uint64
	f.Add(seedBytes(1, 2, 3, 1000, 1<<40), uint16(50)) // mixed magnitudes
	f.Fuzz(func(t *testing.T, data []byte, pRaw uint16) {
		vals := fuzzValues(data)
		if len(vals) == 0 {
			return
		}
		p := float64(pRaw%1001) / 10 // quantile in [0, 100]
		h := NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
		got := h.Percentile(p)
		exact := exactPercentile(vals, p)
		if got > exact {
			t.Fatalf("p%.1f of %d values: histogram %d > exact %d", p, len(vals), got, exact)
		}
		if exact-got > got>>h.subBits {
			t.Fatalf("p%.1f of %d values: histogram %d too far below exact %d (max gap %d)",
				p, len(vals), got, exact, got>>h.subBits)
		}
	})
}

// FuzzBucketIndex cross-checks the bits.Len64 bucket computation against
// the shift-loop oracle and the bucketLow inverse on arbitrary values.
func FuzzBucketIndex(f *testing.F) {
	f.Add(uint64(42))
	f.Add(uint64(400))
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, v uint64) {
		h := NewHistogram()
		i := h.bucketIndex(v)
		if ref := bucketIndexRef(h.subBits, v); i != ref {
			t.Fatalf("bucketIndex(%d) = %d, oracle %d", v, i, ref)
		}
		if lo := h.bucketLow(i); lo > v {
			t.Fatalf("bucketLow(bucketIndex(%d)=%d) = %d > value", v, i, lo)
		}
		// The next bucket's lower bound overflows uint64 for the topmost
		// bucket; the containment check only applies below it.
		if hi := h.bucketLow(i + 1); hi > 0 && v >= hi {
			t.Fatalf("value %d at or above next bucket's low %d", v, hi)
		}
	})
}
