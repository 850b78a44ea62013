package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := uint64(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Count() != 32 {
		t.Fatalf("count = %d, want 32", h.Count())
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Errorf("min/max = %d/%d, want 0/31", h.Min(), h.Max())
	}
	// Nearest-rank: the 16th of 32 observations is value 15.
	if got := h.Percentile(50); got != 15 {
		t.Errorf("p50 = %d, want 15", got)
	}
	if got := h.Percentile(100); got != 31 {
		t.Errorf("p100 = %d, want 31", got)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Record(200)
	h.Record(300)
	if got := h.Mean(); got != 200 {
		t.Errorf("mean = %g, want 200", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Percentiles of a bucketed histogram must be within ~2^-5 relative
	// error of the exact nearest-rank percentile.
	h := NewHistogram()
	var raw []uint64
	v := uint64(1)
	for i := 0; i < 10000; i++ {
		v = v*1103515245 + 12345
		x := v % 10_000_000
		raw = append(raw, x)
		h.Record(x)
	}
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		exact := exactPercentile(raw, p)
		got := h.Percentile(p)
		if exact == 0 {
			continue
		}
		relerr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if relerr > 0.04 {
			t.Errorf("p%g: histogram %d vs exact %d, rel err %.3f", p, got, exact, relerr)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(uint64(v))
		}
		prev := uint64(0)
		for p := 1.0; p <= 100; p += 1 {
			cur := h.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	f := func(vals []uint32, p8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(uint64(v))
		}
		p := float64(p8) / 255 * 100
		got := h.Percentile(p)
		return got >= h.Min() && got <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(uint64(i))
		b.Record(uint64(1000 + i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Errorf("merged min/max = %d/%d, want 0/1099", a.Min(), a.Max())
	}
	if got := a.Percentile(50); got > 110 {
		t.Errorf("merged p50 = %d, want ≈99", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("reset histogram not empty: %+v", h.Summarize())
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Errorf("post-reset record broken: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramRecordN(t *testing.T) {
	h := NewHistogram()
	h.RecordN(10, 5)
	h.RecordN(10, 0) // no-op
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Mean() != 10 {
		t.Errorf("mean = %g, want 10", h.Mean())
	}
}

// TestHistogramRisingGrowthLogarithmic records a strictly rising sequence
// that opens 1,000 new top buckets one at a time: the bucket array must be
// reallocated O(log n) times, not once per bucket, while len(buckets)
// stays exactly one past the highest bucket recorded.
func TestHistogramRisingGrowthLogarithmic(t *testing.T) {
	const n = 1000
	var h *Histogram
	allocs := testing.AllocsPerRun(5, func() {
		h = NewHistogram()
		for i := 0; i < n; i++ {
			h.Record(h.bucketLow(i))
		}
	})
	// One allocation is the Histogram itself.
	if allocs > 20 {
		t.Fatalf("recording %d rising buckets allocates %.0f times, want O(log n)", n, allocs)
	}
	if len(h.buckets) != n || h.Count() != n || h.Max() != h.bucketLow(n-1) {
		t.Fatalf("len(buckets) = %d, count = %d, max = %d; want %d, %d, %d",
			len(h.buckets), h.Count(), h.Max(), n, n, h.bucketLow(n-1))
	}
	for i, c := range h.buckets {
		if c != 1 {
			t.Fatalf("bucket %d holds %d, want 1", i, c)
		}
	}
}

func TestBucketRoundTrip(t *testing.T) {
	h := NewHistogram()
	// bucketLow(bucketIndex(v)) <= v and is within one sub-bucket width.
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345} {
		i := h.bucketIndex(v)
		lo := h.bucketLow(i)
		if lo > v {
			t.Errorf("bucketLow(%d)=%d > v=%d", i, lo, v)
		}
		if v > 0 && float64(v-lo)/float64(v) > 1.0/16 {
			t.Errorf("v=%d bucket lower bound %d too far", v, lo)
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("mean = %g, want 5", got)
	}
	if got := w.N(); got != 8 {
		t.Errorf("n = %d, want 8", got)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 {
		t.Errorf("empty Welford nonzero")
	}
}

// exactPercentile computes a nearest-rank percentile from a sorted copy of
// xs: the oracle the histogram tests check Percentile against.
func exactPercentile(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]uint64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(cp))))
	if rank < 1 {
		rank = 1
	}
	return cp[rank-1]
}

func TestExactPercentile(t *testing.T) {
	xs := []uint64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want uint64
	}{{0, 1}, {20, 1}, {40, 2}, {60, 3}, {80, 4}, {100, 5}, {50, 3}}
	for _, c := range cases {
		if got := exactPercentile(xs, c.p); got != c.want {
			t.Errorf("exactPercentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := exactPercentile(nil, 50); got != 0 {
		t.Errorf("empty exactPercentile = %d, want 0", got)
	}
	// Must not mutate input.
	if xs[0] != 5 {
		t.Errorf("exactPercentile mutated its input: %v", xs)
	}
}

func TestCycleAccount(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("net", 400)
	a.Charge("poll", 600)
	a.Charge("net", 100)
	if a.Total() != 1100 {
		t.Fatalf("total = %d, want 1100", a.Total())
	}
	if got := a.Fraction("net"); math.Abs(got-500.0/1100) > 1e-12 {
		t.Errorf("net fraction = %g", got)
	}
	cats := a.Categories()
	if len(cats) != 2 || cats[0] != "net" || cats[1] != "poll" {
		t.Errorf("categories = %v", cats)
	}
	b := NewCycleAccount()
	b.Charge("free", 900)
	a.Merge(b)
	if a.Get("free") != 900 || a.Total() != 2000 {
		t.Errorf("merge failed: total=%d free=%d", a.Total(), a.Get("free"))
	}
}

func TestBusy(t *testing.T) {
	var b Busy
	b.MarkBusy(100)
	b.MarkBusy(150) // overlapping mark ignored
	b.MarkIdle(200)
	b.MarkIdle(250) // double idle ignored
	if got := b.BusyCycles(300); got != 100 {
		t.Errorf("busy cycles = %d, want 100", got)
	}
	b.MarkBusy(300)
	if got := b.BusyCycles(350); got != 150 {
		t.Errorf("busy cycles incl. open interval = %d, want 150", got)
	}
	if got := b.Utilization(400); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %g, want 0.5", got)
	}
}

func TestSummaryAndString(t *testing.T) {
	h := NewHistogram()
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.Summarize()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Errorf("summary %+v", s)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.P999 {
		t.Errorf("summary percentiles not ordered: %+v", s)
	}
	if str := s.String(); len(str) == 0 {
		t.Errorf("empty summary string")
	}
}

func TestMergeResolutionMismatchPanics(t *testing.T) {
	a := NewHistogram()
	b := NewHistogram()
	b.subBits = 6
	b.Record(5)
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched-resolution merge did not panic")
		}
	}()
	a.Merge(b)
}

func TestMergeEmptyIsNoop(t *testing.T) {
	a := NewHistogram()
	a.Record(7)
	a.Merge(nil)
	a.Merge(NewHistogram())
	if a.Count() != 1 {
		t.Errorf("merge of empty changed count: %d", a.Count())
	}
}

func TestCycleAccountString(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("net", 750)
	a.Charge("free", 250)
	s := a.String()
	if !strings.Contains(s, "net=75.0%") || !strings.Contains(s, "free=25.0%") {
		t.Errorf("account string %q", s)
	}
	if NewCycleAccount().Fraction("x") != 0 {
		t.Errorf("empty account fraction nonzero")
	}
}
