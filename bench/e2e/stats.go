package e2e

import (
	"math"
	"slices"
)

// MinBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the reading is a few outliers, not a
// percentile.
const MinBeyond = 10

// Percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule, and whether at least MinBeyond samples lie beyond
// it. The median of a non-empty sample is always reportable.
func Percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], q <= 0.5 || n-rank >= MinBeyond
}

// Median returns the median of vs (the mean of the middle two for an
// even count) and 0 for none. vs is sorted in place.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// Quartiles returns the first, second and third quartile of values the
// way Python's statistics.quantiles(values, n=4) does, which is what
// the benchmark's driver computes spreads with. No values give zeros.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	vs := slices.Clone(values)
	slices.Sort(vs)
	switch len(vs) {
	case 0:
		return 0, 0, 0
	case 1:
		return vs[0], vs[0], vs[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(vs)+1)
		j := min(max(int(math.Floor(pos)), 1), len(vs)-1)
		return vs[j-1] + (pos-float64(j))*(vs[j]-vs[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Cheapest returns the mean of the lowest sixth of values (at least
// one): a cost with the one-sided noise of a shared host taken off. See
// cpuSlices. No values give zero.
func Cheapest(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	vs := slices.Clone(values)
	slices.Sort(vs)
	vs = vs[:max(1, len(vs)/6)]
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
