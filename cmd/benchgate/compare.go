package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// compare reads two `go test -bench` outputs of the same benchmarks —
// the parent commit's and a change's, ideally from alternating runs —
// and writes one markdown table row per benchmark found in both: the
// median ns/op of each side, the change's delta, the two-sided
// Mann–Whitney U p-value of the ns/op samples, and the median B/op and
// allocs/op of each side.
func compare(parentPath, changePath string, stdout io.Writer) error {
	parent, err := parseFile(parentPath)
	if err != nil {
		return err
	}
	change, err := parseFile(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no benchmark", parentPath, changePath)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "| benchmark | parent ns/op | change ns/op | delta | p (Mann–Whitney U) | n | B/op | allocs/op |")
	fmt.Fprintln(stdout, "|---|---:|---:|---:|---:|---:|---:|---:|")
	ns := func(s sample) float64 { return s.NsPerOp }
	bytes := func(s sample) float64 { return s.BytesPerOp }
	allocs := func(s sample) float64 { return s.AllocsPerOp }
	for _, name := range names {
		p, c := parent[name], change[name]
		_, pval := mannWhitney(column(p, ns), column(c, ns))
		pm, cm := median(column(p, ns)), median(column(c, ns))
		fmt.Fprintf(stdout, "| %s | %.4g | %.4g | %+.1f%% | %.3g | %d / %d | %.4g → %.4g | %.4g → %.4g |\n",
			name, pm, cm, 100*(cm-pm)/pm, pval, len(p), len(c),
			median(column(p, bytes)), median(column(c, bytes)),
			median(column(p, allocs)), median(column(c, allocs)))
	}
	return nil
}

func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBenchOutput(f)
}

func column(ss []sample, field func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = field(s)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exactLimit is the largest sample size per side for which mannWhitney
// computes the exact distribution; beyond it, the normal approximation.
const exactLimit = 10

// mannWhitney returns the Mann–Whitney U statistic of x (the number of
// (x, y) pairs with x > y, a tie counting one half) and the two-sided
// p-value of the hypothesis that x and y come from one distribution.
// Tied values take their mean rank. With at most exactLimit samples a
// side the p-value is exact: the share of all ways to choose len(x) of
// the pooled ranks whose rank sum lies at least as far from its mean
// as x's does (which accounts for ties). Beyond that it is the normal
// approximation with the tie-corrected variance and a continuity
// correction.
func mannWhitney(x, y []float64) (u, p float64) {
	m, n := len(x), len(y)
	if m == 0 || n == 0 {
		return 0, 1
	}
	type obs struct {
		v   float64
		inX bool
	}
	pooled := make([]obs, 0, m+n)
	for _, v := range x {
		pooled = append(pooled, obs{v, true})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v, false})
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].v < pooled[j].v })

	// Ranks doubled, so mean ranks of ties stay integers.
	ranks2 := make([]int, len(pooled))
	rx2, tieTerm := 0, 0.0
	for i := 0; i < len(pooled); {
		j := i
		for j < len(pooled) && pooled[j].v == pooled[i].v {
			j++
		}
		for k := i; k < j; k++ {
			ranks2[k] = i + 1 + j // (i+1 + j) / 2, doubled
			if pooled[k].inX {
				rx2 += ranks2[k]
			}
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	N := m + n
	u = float64(rx2)/2 - float64(m*(m+1))/2
	mean2 := m * (N + 1) // the rank sum's mean, doubled
	dev2 := abs(rx2 - mean2)

	if m <= exactLimit && n <= exactLimit {
		// ways[k][s]: subsets of k pooled ranks whose doubled sum is s.
		maxSum := N * (N + 1) // all ranks, doubled
		ways := make([][]float64, m+1)
		for k := range ways {
			ways[k] = make([]float64, maxSum+1)
		}
		ways[0][0] = 1
		for _, r := range ranks2 {
			for k := m; k >= 1; k-- {
				for s := maxSum; s >= r; s-- {
					ways[k][s] += ways[k-1][s-r]
				}
			}
		}
		var hit, all float64
		for s, w := range ways[m] {
			all += w
			if abs(s-mean2) >= dev2 {
				hit += w
			}
		}
		return u, hit / all
	}

	fm, fn, fN := float64(m), float64(n), float64(N)
	variance := fm * fn / 12 * ((fN + 1) - tieTerm/(fN*(fN-1)))
	if variance <= 0 {
		return u, 1
	}
	z := (float64(dev2)/2 - 0.5) / math.Sqrt(variance)
	if z < 0 {
		return u, 1
	}
	return u, math.Erfc(z / math.Sqrt2)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
