// Command gossipbench is the repository's one end-to-end benchmark: it
// generates each workload from a seed, drives it over real loopback UDP
// (or the simulator), checks what was delivered, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	bash bench/run.sh                         all four workloads, seed 1
//	bash bench/run.sh --workload udp_full --seed 7 --seconds 22 --trace 1
//	bash bench/run.sh -repeat 2 -seed 1,2     repeatability check
//
// With --workload naming one workload the last line of standard output
// is the result object BENCHMARK.json's contract asks for.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"adaptivegossip/bench/e2e"
	"adaptivegossip/bench/traced"
)

// DefaultSeconds is the measured window of a run, BENCHMARK.json's
// run_seconds.
const DefaultSeconds = 22

type options struct {
	workload string
	seeds    []uint64
	seconds  float64
	trace    bool
	repeat   int
	// allMetrics makes the result line carry every end-to-end metric
	// that applies to the workload instead of the contract's fixed set;
	// -repeat uses it to gate all fourteen.
	allMetrics bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("gossipbench", flag.ContinueOnError)
	seeds := fs.String("seed", "1", "workload seed, or a comma-separated list of seeds")
	trace := fs.String("trace", "0", "1 adds the traced run: per-layer ledger, span file, residual")
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Float64Var(&o.seconds, "seconds", DefaultSeconds, "measured window in seconds")
	fs.IntVar(&o.repeat, "repeat", 0, "run the whole set N times in fresh processes and report the spread")
	fs.BoolVar(&o.allMetrics, "all-metrics", false, "result line carries every applicable end-to-end metric (used by -repeat)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return o, fmt.Errorf("-seed: %v", err)
		}
		o.seeds = append(o.seeds, v)
	}
	switch *trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return o, fmt.Errorf("-trace: want 0 or 1, got %q", *trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipbench:", err)
		os.Exit(2)
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run dispatches on the mode and reports whether everything that ran
// was correct.
func run(o options) (bool, error) {
	if o.repeat > 0 {
		return repeat(o)
	}
	if o.workload == "all" || len(o.seeds) > 1 {
		// One fresh process per workload and seed, so peak_rss_mb and
		// the allocator's state belong to that run alone.
		ok := true
		for _, seed := range o.seeds {
			for _, name := range workloadNames(o.workload) {
				_, childOK, err := runChild(o, name, seed, os.Stdout)
				if err != nil {
					return false, err
				}
				ok = ok && childOK
			}
		}
		return ok, nil
	}
	w, err := e2e.ByName(o.workload)
	if err != nil {
		return false, err
	}
	return runOne(w, o.seeds[0], o)
}

func workloadNames(sel string) []string {
	if sel != "all" {
		return []string{sel}
	}
	var names []string
	for _, w := range e2e.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// runOne runs one workload in this process: the untraced end-to-end run
// always, the traced run on top when asked, then the report and the
// result line.
func runOne(w e2e.Workload, seed uint64, o options) (bool, error) {
	fmt.Printf("== %s  seed=%d  window=%gs ==\n", w.Name, seed, o.seconds)
	fmt.Println(environment())
	fmt.Println("why:", w.Why)

	var res *e2e.Result
	var err error
	if w.Sim {
		var counts e2e.SimCounts
		res, counts, err = e2e.RunSim(w, seed, o.seconds)
		if err == nil {
			checkPinned(res, seed, o.seconds, counts)
		}
	} else {
		res, err = e2e.RunUDP(w, seed, time.Duration(o.seconds*float64(time.Second)))
	}
	if err != nil {
		return false, err
	}

	var ledger *traced.Ledger
	if o.trace {
		ledger, err = traced.Run(w, seed, o.seconds, res.MeanCPU, "out")
		if err != nil {
			return false, err
		}
		res.Violations = append(res.Violations, ledger.Violations...)
	}
	printReport(os.Stdout, res, ledger)
	return res.Correct(), printResultLine(os.Stdout, res, ledger, o)
}
