package observe

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 {
		t.Fatalf("empty histogram reports count=%d sum=%d", snap.Count, snap.Sum)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if v := snap.Quantile(q); v != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, v)
		}
	}
	if m := snap.Mean(); m != 0 {
		t.Fatalf("empty histogram Mean() = %v, want 0", m)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	// Every value must land in the bucket whose [low, high) range
	// contains it; the extremes must saturate, not panic or wrap.
	values := []uint64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 40, 1 << 63, math.MaxUint64}
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("value %d maps to out-of-range bucket %d", v, i)
		}
		if v < BucketLow(i) {
			t.Fatalf("value %d below bucket %d low bound %d", v, i, BucketLow(i))
		}
		if i < 64 && v >= BucketHigh(i) {
			t.Fatalf("value %d at/above bucket %d high bound %d", v, i, BucketHigh(i))
		}
	}
}

func TestHistogramSaturatingOverflow(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxUint64)
	h.Observe(math.MaxUint64)
	h.Observe(1 << 63)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if got := snap.Buckets[NumBuckets-1]; got != 3 {
		t.Fatalf("top bucket holds %d, want all 3 saturated observations", got)
	}
	// Quantiles of the saturating bucket report its lower bound rather
	// than interpolating into a fictional upper bound.
	if q := snap.Quantile(0.99); q != float64(uint64(1)<<63) {
		t.Fatalf("saturated Quantile(0.99) = %g, want 2^63", q)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 1000 || snap.Sum != 999*1000/2 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.Sum)
	}
	// Power-of-two buckets bound the estimate to within 2x of truth.
	for _, tc := range []struct{ q, want float64 }{{0.5, 499}, {0.95, 949}, {0.99, 989}} {
		got := snap.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Fatalf("Quantile(%v) = %g, want within 2x of %g", tc.q, got, tc.want)
		}
	}
}

// TestHistogramConcurrentObserve model-checks the concurrent histogram
// against a naive single-threaded reference: GOMAXPROCS goroutines
// hammer Observe with deterministic per-goroutine streams, and the
// final snapshot must match the reference built from the same streams.
func TestHistogramConcurrentObserve(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 20000
	var h Histogram

	type naive struct {
		count, sum uint64
		buckets    [NumBuckets]uint64
	}
	refs := make([]naive, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 42))
			for i := 0; i < perWorker; i++ {
				// Mix magnitudes so many buckets are exercised.
				v := rng.Uint64() >> (rng.UintN(64))
				h.Observe(v)
				refs[w].count++
				refs[w].sum += v
				refs[w].buckets[bucketIndex(v)]++
			}
		}(w)
	}
	wg.Wait()

	var want naive
	for _, r := range refs {
		want.count += r.count
		want.sum += r.sum
		for i := range r.buckets {
			want.buckets[i] += r.buckets[i]
		}
	}
	snap := h.Snapshot()
	if snap.Count != want.count || snap.Sum != want.sum {
		t.Fatalf("concurrent result count=%d sum=%d, reference count=%d sum=%d",
			snap.Count, snap.Sum, want.count, want.sum)
	}
	if snap.Buckets != want.buckets {
		t.Fatalf("concurrent bucket counts diverge from naive reference")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(uint64(i))
		b.Observe(uint64(i * 1000))
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Fatalf("merged count %d != %d+%d", merged.Count, sa.Count, sb.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged sum %d != %d+%d", merged.Sum, sa.Sum, sb.Sum)
	}
	var buckets uint64
	for _, c := range merged.Buckets {
		buckets += c
	}
	if buckets != merged.Count {
		t.Fatalf("merged buckets sum to %d, count is %d", buckets, merged.Count)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		h.ObserveInt(-5)
	})
	if allocs != 0 {
		t.Fatalf("Histogram.ObserveInt allocates %v times, want 0", allocs)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}
