package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"

	"adaptivegossip/bench/e2e"
)

// runChild runs one workload and seed in a fresh process of this same
// binary, copies the child's report to out and returns its result line.
func runChild(o options, name string, seed uint64, out io.Writer) (resultLine, bool, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, false, err
	}
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.allMetrics {
		args = append(args, "-all-metrics")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return line, false, err
	}
	if err := cmd.Start(); err != nil {
		return line, false, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(out, last)
	}
	werr := cmd.Wait() // always reap the child, whatever the scan did
	if err := sc.Err(); err != nil {
		return line, false, fmt.Errorf("%s seed %d: reading output: %w", name, seed, err)
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, false, fmt.Errorf("%s seed %d: no result line (%v)", name, seed, werr)
	}
	// Exit status 1 is a child whose oracle failed: its metrics stand.
	return line, werr == nil, nil
}

// repeat runs the whole set N times in fresh processes and prints, per
// workload and end-to-end metric, min/median/max, the spread between
// the quartiles as a share of the median, and a verdict: ok when the
// spread and the disagreement between the sets' medians both fit the
// metric's bound, unresolved when the benchmark as it stands cannot
// resolve a change of that size.
func repeat(o options) (bool, error) {
	o.allMetrics = true
	type key struct{ workload, metric string }
	values := map[key][][]float64{} // per set
	correct := true
	names := workloadNames(o.workload)
	for set := 0; set < o.repeat; set++ {
		for _, seed := range o.seeds {
			for _, name := range names {
				fmt.Printf("set %d/%d  %s  seed %d\n", set+1, o.repeat, name, seed)
				line, ok, err := runChild(o, name, seed, io.Discard)
				if err != nil {
					return false, err
				}
				if !ok || !line.Correct {
					correct = false
					fmt.Printf("  oracle FAILED (attempted=%d failed=%d)\n", line.Attempted, line.Failed)
				}
				for metric, r := range line.Metrics {
					k := key{name, metric}
					for len(values[k]) <= set {
						values[k] = append(values[k], nil)
					}
					values[k][set] = append(values[k][set], r.Value)
				}
			}
		}
	}

	resolved := true
	for _, name := range names {
		fmt.Printf("\n%s  (%d sets x %d seeds)\n", name, o.repeat, len(o.seeds))
		fmt.Printf("  %-26s %12s %12s %12s %9s %9s %9s  %s\n", "metric", "min", "median", "max", "spread", "sets", "bound", "verdict")
		for _, s := range endToEnd {
			sets := values[key{name, s.Name}]
			if len(sets) == 0 {
				continue
			}
			var all, medians []float64
			for _, vs := range sets {
				all = append(all, vs...)
				_, m, _ := e2e.Quartiles(vs)
				medians = append(medians, m)
			}
			q1, med, q3 := e2e.Quartiles(all)
			allow := s.allowance(med)
			spread := q3 - q1
			disagree := slices.Max(medians) - slices.Min(medians)
			verdict := "ok"
			if spread > allow || disagree > allow {
				verdict = "unresolved"
				resolved = false
			}
			rel := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v/math.Abs(med)) }
			fmt.Printf("  %-26s %12.6g %12.6g %12.6g %9s %9s %9s  %s\n", s.Name,
				slices.Min(all), med, slices.Max(all), rel(spread), rel(disagree), rel(allow), verdict)
		}
	}
	if !resolved {
		fmt.Println("\nsome metrics are unresolved: their run-to-run spread exceeds their bound, so a change of that size cannot be told from noise")
	}
	return correct, nil
}
