// Package observe is the protocol observability layer: an alloc-free
// instrumentation core (atomic counters and fixed-bucket histograms the
// gossip hot path can update without violating the zero-allocation
// round contracts), a sampling rumor-lifecycle tracer,
// and an opt-in debug HTTP server exposing everything as expvar-style
// JSON, Prometheus text format and net/http/pprof.
//
// The package sits below every protocol package (it imports nothing
// from the repository), so gossip, runtime, sim and the public facades
// can all share one set of instrument types. The discrete-event
// simulator uses the same Histogram as the live runtime, which is what
// lets figure sweeps report the p50/p95/p99 delivery-latency and
// hop-count distributions the debug endpoint serves on a live node.
package observe

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// NumBuckets is the fixed bucket count of Histogram: one bucket per
// power-of-two magnitude of a uint64 observation (bucket i counts
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i)), plus
// bucket 0 for exact zeros. The bounds are fixed at compile time, so
// Observe is a pair of atomic adds — no sizing, no allocation, no lock.
const NumBuckets = 65

// Histogram is a fixed-bucket histogram with power-of-two bucket
// bounds, safe for concurrent use. The zero value is ready to use.
//
// Observe performs three atomic adds and never allocates, which is
// what lets the gossip hot path (Tick/Receive) update histograms while
// keeping its AllocsPerRun == 0 contracts. Values saturate into the
// top bucket rather than overflowing: every uint64 maps to a bucket.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: 0 → 0, v ≥ 1 → bits.Len64(v)
// (so 1 → 1, [2,4) → 2, [4,8) → 3, ...). The result is always within
// [0, NumBuckets).
func bucketIndex(v uint64) int { return bits.Len64(v) }

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i <= 1 {
		return uint64(i)
	}
	return 1 << (i - 1)
}

// BucketHigh returns the exclusive upper bound of bucket i (MaxUint64
// for the saturating top bucket).
func BucketHigh(i int) uint64 {
	if i == 0 {
		return 1
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveInt records a scalar (durations in the caller's unit, counts,
// sizes); negative values clamp to zero.
func (h *Histogram) ObserveInt(v int64) {
	if v < 0 {
		v = 0
	}
	h.Observe(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a point-in-time copy of the histogram. The copy is
// internally consistent enough for monitoring (each counter is read
// once; a concurrent Observe may straddle the reads).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram, the unit the
// sim sweeps aggregate and the debug endpoint serializes.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Add records one value: Histogram.Observe for a single owner that
// serializes its own updates, without the atomics.
func (s *HistogramSnapshot) Add(v uint64) {
	s.Count++
	s.Sum += v
	s.Buckets[bucketIndex(v)]++
}

// Merge folds another snapshot into this one (pooling observations).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the exact mean of the observed values (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by rank-interpolating
// within the containing power-of-two bucket. It returns 0 for an empty
// histogram. Because bucket bounds are powers of two, the estimate is
// exact to within a factor of two and typically much closer.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo := float64(BucketLow(i))
			hi := float64(BucketHigh(i))
			if i >= 64 { // saturating top bucket: no finite width
				return lo
			}
			frac := (rank - float64(prev)) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	return float64(BucketHigh(NumBuckets - 1))
}

// NodeMetrics is the per-node instrumentation block the gossip state
// machine updates in its hot path. All fields are alloc-free atomics;
// one NodeMetrics may be shared by several state machines (the members
// of a Cluster), in which case the histograms pool their observations.
type NodeMetrics struct {
	// DeliverHops distributes the age (≈ hop count) at which events
	// were delivered — the dissemination-depth distribution related
	// work evaluates gossip protocols on.
	DeliverHops Histogram
	// DropAge distributes the age at which events were evicted by
	// buffer pressure — the paper's §2.3 congestion signal, now as a
	// distribution rather than a running mean.
	DropAge Histogram
	// RoundEvents distributes the events carried per outgoing round
	// message (buffer occupancy as seen on the wire).
	RoundEvents Histogram
}

// RunnerMetrics is the per-driver instrumentation block a real-time
// runner updates: wall-clock processing latencies of the two protocol
// entry points, in nanoseconds.
type RunnerMetrics struct {
	// TickNanos distributes the duration of one gossip round
	// (Tick + send handoff), in nanoseconds.
	TickNanos Histogram
	// ReceiveNanos distributes the duration of one inbound message's
	// processing, in nanoseconds.
	ReceiveNanos Histogram
}
