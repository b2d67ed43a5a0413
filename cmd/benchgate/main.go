// Command benchgate is the CI perf-regression gate: it reads `go test
// -bench` output (run with -count >= the sample floor), aggregates the
// per-benchmark samples, and compares them against the checked-in
// baseline (BENCH_5.json). A benchmark fails the gate when
//
//   - its mean ns/op exceeds baseline × -tolerance AND the excess is
//     statistically significant (one-sided one-sample t-test at the 5%
//     level across the samples), or
//   - the baseline promises zero allocs/op and any sample allocates —
//     the zero-allocation contracts are exact, not statistical.
//
// Usage:
//
//	go test -run '^$' -bench 'NodeTick$|NodeReceive$' -count=6 \
//	    -benchtime 1000x ./internal/gossip/ | benchgate -baseline BENCH_5.json
//
// benchgate exits 0 when every gated benchmark present in the input
// passes, 1 on regression, 2 on usage errors (unreadable baseline, too
// few samples, no gated benchmarks in the input).
//
// With -compare it gates nothing: it reads the bench output of the
// parent commit and of a change (alternating runs of the same
// benchmarks) and prints a markdown table of each benchmark's median
// ns/op on both sides, the delta, and a two-sided Mann–Whitney U
// p-value, exact for at most 10 samples a side:
//
//	benchgate -compare parent.txt change.txt
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	var (
		baselinePath = "BENCH_5.json"
		inputPath    = ""
		comparePaths []string
		tolerance    = 2.0
		minCount     = 5
	)
	for i := 0; i < len(args); i++ {
		flagArg := func() (string, error) {
			if i+1 >= len(args) {
				return "", fmt.Errorf("%s needs a value", args[i])
			}
			i++
			return args[i], nil
		}
		var err error
		switch args[i] {
		case "-baseline":
			baselinePath, err = flagArg()
		case "-input":
			inputPath, err = flagArg()
		case "-compare":
			var parent, change string
			if parent, err = flagArg(); err == nil {
				change, err = flagArg()
			}
			if err != nil {
				err = fmt.Errorf("-compare needs two files: parent.txt change.txt")
			}
			comparePaths = []string{parent, change}
		case "-tolerance":
			var v string
			if v, err = flagArg(); err == nil {
				tolerance, err = strconv.ParseFloat(v, 64)
			}
		case "-min-count":
			var v string
			if v, err = flagArg(); err == nil {
				minCount, err = strconv.Atoi(v)
			}
		default:
			err = fmt.Errorf("unknown flag %s", args[i])
		}
		if err != nil {
			return 2, err
		}
	}
	if tolerance < 1 {
		return 2, fmt.Errorf("tolerance %v must be >= 1", tolerance)
	}
	if minCount < 2 {
		return 2, fmt.Errorf("min-count %d must be >= 2 for a variance estimate", minCount)
	}
	if comparePaths != nil {
		if err := compare(comparePaths[0], comparePaths[1], stdout); err != nil {
			return 2, err
		}
		return 0, nil
	}

	baselines, err := loadBaselines(baselinePath)
	if err != nil {
		return 2, err
	}
	in := stdin
	if inputPath != "" {
		f, err := os.Open(inputPath)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		in = f
	}
	samples, err := parseBenchOutput(in)
	if err != nil {
		return 2, err
	}

	results, err := gate(baselines, samples, tolerance, minCount)
	if err != nil {
		return 2, err
	}
	failed := false
	for _, r := range results {
		fmt.Fprintln(stdout, r.String())
		if !r.Pass {
			failed = true
		}
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// baseline is one benchmark's gated reference numbers.
type baseline struct {
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool
}

// loadBaselines extracts the "after" numbers of every benchmark in the
// BENCH_5.json baseline file. The per-benchmark metric keys differ
// (ns_per_round, ns_per_msg, ns_per_insert, ...), so keys are matched
// by prefix.
func loadBaselines(path string) (map[string]baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]struct {
			After map[string]float64 `json:"after"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := make(map[string]baseline, len(doc.Benchmarks))
	for name, b := range doc.Benchmarks {
		var bl baseline
		found := false
		for key, v := range b.After {
			switch {
			case strings.HasPrefix(key, "ns_per"):
				bl.NsPerOp = v
				found = true
			case strings.HasPrefix(key, "allocs_per"):
				bl.AllocsPerOp = v
				bl.HasAllocs = true
			}
		}
		if found {
			out[name] = bl
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no usable baselines", path)
	}
	return out, nil
}

// sample is one benchmark line's measurements.
type sample struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasAllocs   bool
}

// parseBenchOutput reads `go test -bench` text output and groups the
// samples per benchmark base name (the -N GOMAXPROCS suffix stripped),
// in input order.
func parseBenchOutput(r io.Reader) (map[string][]sample, error) {
	out := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var s sample
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = v
				ok = true
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
				s.HasAllocs = true
			}
		}
		if ok {
			out[name] = append(out[name], s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// result is one benchmark's gate verdict.
type result struct {
	Name      string
	Pass      bool
	Mean      float64
	Stddev    float64
	Count     int
	Threshold float64
	TStat     float64
	Reason    string
}

func (r result) String() string {
	verdict := "ok  "
	if !r.Pass {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-24s mean %.1f ns/op (±%.1f, n=%d) vs limit %.1f — %s",
		verdict, r.Name, r.Mean, r.Stddev, r.Count, r.Threshold, r.Reason)
}

// tCrit is the one-sided Student-t 95% critical value by degrees of
// freedom; beyond the table the normal approximation is close enough.
func tCrit(df int) float64 {
	table := map[int]float64{
		1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015,
		6: 1.943, 7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812,
		11: 1.796, 12: 1.782, 13: 1.771, 14: 1.761, 15: 1.753,
	}
	if v, ok := table[df]; ok {
		return v
	}
	if df <= 0 {
		return math.Inf(1)
	}
	return 1.645
}

// gate compares every sampled benchmark that has a baseline. It
// requires minCount samples per gated benchmark and reports an error
// when the input contains no gated benchmark at all (an empty gate
// passing silently would hide a broken CI pipeline).
func gate(baselines map[string]baseline, samples map[string][]sample, tolerance float64, minCount int) ([]result, error) {
	names := make([]string, 0, len(samples))
	for name := range samples {
		if _, ok := baselines[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("input contains no benchmark with a baseline")
	}
	sort.Strings(names)
	var out []result
	for _, name := range names {
		bl := baselines[name]
		ss := samples[name]
		if len(ss) < minCount {
			return nil, fmt.Errorf("%s: %d samples, need >= %d (-count)", name, len(ss), minCount)
		}
		var mean float64
		for _, s := range ss {
			mean += s.NsPerOp
		}
		mean /= float64(len(ss))
		var varsum float64
		for _, s := range ss {
			d := s.NsPerOp - mean
			varsum += d * d
		}
		stddev := math.Sqrt(varsum / float64(len(ss)-1))
		r := result{
			Name:      name,
			Mean:      mean,
			Stddev:    stddev,
			Count:     len(ss),
			Threshold: bl.NsPerOp * tolerance,
		}

		// The alloc contract is exact: a zero-alloc baseline admits no
		// allocating sample at all.
		allocFailed := false
		if bl.HasAllocs && bl.AllocsPerOp == 0 {
			for _, s := range ss {
				if s.HasAllocs && s.AllocsPerOp > 0 {
					allocFailed = true
					r.Reason = fmt.Sprintf("allocs/op %.0f, contract is 0", s.AllocsPerOp)
					break
				}
			}
		}
		switch {
		case allocFailed:
			r.Pass = false
		case mean <= r.Threshold:
			r.Pass = true
			r.Reason = "within limit"
		default:
			// Mean over the limit: significant only if the t statistic
			// clears the one-sided critical value.
			if stddev == 0 {
				r.TStat = math.Inf(1)
			} else {
				r.TStat = (mean - r.Threshold) / (stddev / math.Sqrt(float64(len(ss))))
			}
			if r.TStat > tCrit(len(ss)-1) {
				r.Pass = false
				r.Reason = fmt.Sprintf("regression: t=%.2f > %.2f", r.TStat, tCrit(len(ss)-1))
			} else {
				r.Pass = true
				r.Reason = fmt.Sprintf("over limit but not significant (t=%.2f)", r.TStat)
			}
		}
		out = append(out, r)
	}
	return out, nil
}
