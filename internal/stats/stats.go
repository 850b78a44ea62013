// Package stats provides the measurement primitives used by every xui
// experiment: latency histograms with percentile extraction, running
// mean/variance accumulators, and cycle-accounting buckets for CPU
// utilization breakdowns (networking vs. notification vs. free cycles).
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram records value counts with bounded relative error, in the style
// of HdrHistogram: values are bucketed with sub-bucket resolution so that
// percentile queries are accurate to a few percent across many orders of
// magnitude. Values are unitless; experiments record cycles.
//
// All state is exact integers (bucket counts, count, sum, min, max), which
// makes the histogram's merge operation associative and commutative: any
// partition of a set of observations, recorded in any order and merged in
// any order, produces bit-identical state and therefore byte-identical
// summaries. This is the property that lets parallel sweep workers and the
// run cache share histograms without perturbing report fingerprints
// (TestMergeOrderIndependent in this package pins it).
type Histogram struct {
	subBits uint // sub-buckets per power of two = 1<<subBits
	buckets []uint64
	count   uint64
	sum     uint64 // exact integer sum; order-independent unlike a float
	min     uint64
	max     uint64
}

// NewHistogram returns a histogram with 2^subBits sub-buckets per octave.
// subBits = 5 gives ≤ ~3 % relative error, plenty for tail-latency plots.
func NewHistogram() *Histogram {
	return &Histogram{subBits: 5, min: math.MaxUint64}
}

func (h *Histogram) bucketIndex(v uint64) int {
	if v < 1<<h.subBits {
		return int(v)
	}
	// exp is how far v must shift right to land in the top sub-bucket
	// range [1<<subBits, 1<<(subBits+1)): bits.Len64(v) - (subBits+1).
	exp := bits.Len64(v) - int(h.subBits) - 1
	sub := v >> uint(exp) // in [1<<subBits, 1<<(subBits+1))
	return (exp+1)<<h.subBits + int(sub) - (1 << h.subBits)
}

// bucketLow returns the smallest value mapping to bucket i (inverse of
// bucketIndex, used for percentile reconstruction).
func (h *Histogram) bucketLow(i int) uint64 {
	if i < 1<<h.subBits {
		return uint64(i)
	}
	exp := i>>h.subBits - 1
	sub := uint64(i&(1<<h.subBits-1)) + 1<<h.subBits
	return sub << uint(exp)
}

// Record adds a single observation.
func (h *Histogram) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n observations of value v.
//
//xui:noalloc
func (h *Histogram) RecordN(v uint64, n uint64) {
	if n == 0 {
		return
	}
	i := h.bucketIndex(v)
	if i >= len(h.buckets) {
		h.extend(i + 1) //xui:alloc bucket-array growth, geometric and at most 64<<subBits slots ever
	}
	h.buckets[i] += n
	h.count += n
	h.sum += v * n
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// extend lengthens buckets to n zeroed slots. A reallocation at least
// doubles the capacity, so values recorded in rising order reallocate
// O(log n) times, not once per new top bucket. Nothing shortens buckets,
// so the spare capacity it exposes is still zero.
func (h *Histogram) extend(n int) {
	if n > cap(h.buckets) {
		nb := make([]uint64, len(h.buckets), max(n, 2*cap(h.buckets)))
		copy(nb, h.buckets)
		h.buckets = nb
	}
	h.buckets = h.buckets[:n]
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of recorded values, 0 when empty. The
// division happens once at query time over exact integer totals, so the
// mean is identical no matter how the observations were partitioned.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value, 0 when empty.
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, 0 when empty.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns the value at quantile p in [0,100]. Like HdrHistogram
// it returns the lower bound of the bucket containing the p-th observation,
// so the result is exact for small values and within one sub-bucket above.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			lo := h.bucketLow(i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Merge adds all observations of other into h. Because every field is an
// exact integer, Merge is associative and commutative: merging any
// permutation of any partition of the same observations yields identical
// state, so percentile queries are byte-identical across -j 1 and -j N.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.subBits != h.subBits {
		panic("stats: merging histograms with different resolution")
	}
	if len(other.buckets) > len(h.buckets) {
		h.extend(len(other.buckets))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// CopyFrom makes h an exact copy of src, reusing h's bucket array. Kept
// copies of a live histogram are its earlier states, the arguments of
// SameStep and Repeat.
func (h *Histogram) CopyFrom(src *Histogram) {
	h.subBits = src.subBits
	h.buckets = append(h.buckets[:0], src.buckets...)
	h.count, h.sum, h.min, h.max = src.count, src.sum, src.min, src.max
}

// bucket returns bucket i's count, 0 past the array's end.
func (h *Histogram) bucket(i int) uint64 {
	if i < len(h.buckets) {
		return h.buckets[i]
	}
	return 0
}

// SameStep reports whether h gained, since its earlier state mid,
// exactly the observations mid had gained since its earlier state old:
// the same count in every bucket, and the same sum.
func (h *Histogram) SameStep(old, mid *Histogram) bool {
	if h.count-mid.count != mid.count-old.count || h.sum-mid.sum != mid.sum-old.sum {
		return false
	}
	for i, c := range h.buckets {
		if m := mid.bucket(i); c-m != m-old.bucket(i) {
			return false
		}
	}
	return true
}

// Repeat records k more times every observation h gained since its
// earlier state prev, as k calls of RecordN per bucket would. Min and max
// stay put: every repeated value is already recorded.
func (h *Histogram) Repeat(prev *Histogram, k uint64) {
	for i, c := range h.buckets {
		h.buckets[i] = c + k*(c-prev.bucket(i))
	}
	h.count += k * (h.count - prev.count)
	h.sum += k * (h.sum - prev.sum)
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxUint64
	h.max = 0
}

// Summary is a compact latency digest.
type Summary struct {
	Count         uint64
	Mean          float64
	P50, P95, P99 uint64
	P999          uint64
	Min, Max      uint64
}

// Summarize extracts the standard digest.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p95=%d p99=%d p99.9=%d max=%d",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.P999, s.Max)
}

// Welford is a running mean accumulator (Welford's algorithm),
// numerically stable for long runs.
type Welford struct {
	n    uint64
	mean float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the observation count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }
