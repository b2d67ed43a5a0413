package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"

	"adaptivegossip/bench/e2e"
	"adaptivegossip/bench/traced"
)

// environment is the block every run prints: what the numbers were
// measured on.
func environment() string {
	kernel := "unknown"
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	return fmt.Sprintf("environment: %s %s/%s nproc=%d GOMAXPROCS=%d kernel=%s network=loopback (every datagram crosses 127.0.0.1, no physical link)",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel)
}

// pinnedSim is sim_paper's outcome for seed 1 at the default window:
// the simulator is deterministic, so any other count means the
// protocol's behaviour changed, which a performance change must not do.
var pinnedSim = e2e.SimCounts{Messages: 140650, Deliveries: 8254318, Atomic: 118108}

func checkPinned(res *e2e.Result, seed uint64, seconds float64, got e2e.SimCounts) {
	fmt.Printf("sim counts: messages=%d deliveries=%d atomic=%d\n", got.Messages, got.Deliveries, got.Atomic)
	if seed != 1 || seconds != DefaultSeconds {
		return
	}
	if got != pinnedSim {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"sim_paper seed 1 gave %+v, pinned %+v: the simulated protocol's behaviour changed", got, pinnedSim))
	}
}

func describeBound(s spec) string {
	sign := "+"
	if s.Better == "higher" {
		sign = "-"
	}
	switch {
	case s.Rel > 0 && s.Abs > 0:
		return fmt.Sprintf("bound %s%g%% or %s%g %s", sign, s.Rel*100, sign, s.Abs, s.Unit)
	case s.Rel > 0:
		return fmt.Sprintf("bound %s%g%%", sign, s.Rel*100)
	default:
		return fmt.Sprintf("bound %s%g abs", sign, s.Abs)
	}
}

// lookup finds a metric among the untraced result and the traced
// ledger.
func lookup(name string, res *e2e.Result, ledger *traced.Ledger) (e2e.Metric, bool) {
	if m, ok := res.Get(name); ok {
		return m, true
	}
	if ledger != nil {
		for _, m := range ledger.Metrics {
			if m.Name == name {
				return m, true
			}
		}
	}
	return e2e.Metric{}, false
}

func printMetric(w io.Writer, m e2e.Metric, note string) {
	samples := ""
	if m.Samples > 0 {
		samples = fmt.Sprintf(" (n=%d)", m.Samples)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-12s%s%s\n", m.Name, m.Value, m.Unit, samples, note)
}

// printReport prints every metric that applies to the run, by name and
// with its unit; a metric that does not apply is left out, never shown
// as zero.
func printReport(w io.Writer, res *e2e.Result, ledger *traced.Ledger) {
	fmt.Fprintln(w, "end-to-end (tracing off):")
	for _, s := range endToEnd {
		if m, ok := res.Get(s.Name); ok {
			printMetric(w, m, "  ["+describeBound(s)+"]")
		}
	}
	fmt.Fprintf(w, "  cpu_us_per_delivery by slice: %.4g (whole-window mean %.4g)\n", res.SliceCPU, res.MeanCPU)
	fmt.Fprintln(w, "per-layer:")
	for _, s := range perLayer {
		if m, ok := lookup(s.Name, res, ledger); ok {
			printMetric(w, m, "")
		}
	}
	if ledger != nil {
		ledger.PrintTable(w)
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d ops_undelivered=%d\n", res.OpsAttempted, res.OpsFailed, res.OpsUndelivered)
	if res.Correct() {
		fmt.Fprintln(w, "oracle: PASS")
		return
	}
	fmt.Fprintln(w, "oracle: FAIL")
	for _, v := range res.Violations {
		fmt.Fprintln(w, "  violation:", v)
	}
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the contract wants as the last line of
// standard output.
type resultLine struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// printResultLine writes the result object. Untraced, its metrics are
// the contract's end-to-end set (or, with -all-metrics, every
// end-to-end metric that applies); traced, they are the whole per-layer
// list of BENCHMARK.json, where a metric that does not apply to the
// workload reads 0 because the contract wants every name on every
// workload.
func printResultLine(w io.Writer, res *e2e.Result, ledger *traced.Ledger, o options) error {
	line := resultLine{
		Correct:   res.Correct(),
		Attempted: max(res.OpsAttempted, 1),
		Failed:    res.OpsFailed,
		Metrics:   map[string]reading{},
	}
	switch {
	case o.allMetrics:
		for _, s := range endToEnd {
			if m, ok := res.Get(s.Name); ok {
				line.Metrics[s.Name] = reading{m.Value, s.Unit}
			}
		}
	case !o.trace:
		for _, s := range endToEnd {
			if !s.Contract {
				continue
			}
			m, ok := res.Get(s.Name)
			if !ok {
				return fmt.Errorf("%s did not produce %s", res.Workload, s.Name)
			}
			line.Metrics[s.Name] = reading{m.Value, s.Unit}
		}
	default:
		for _, s := range contractPerLayer() {
			m, _ := lookup(s.Name, res, ledger)
			line.Metrics[s.Name] = reading{m.Value, s.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// contractPerLayer is BENCHMARK.json's per_layer list: the end-to-end
// metrics that only some workloads have, then the layer ledger.
func contractPerLayer() []spec {
	var out []spec
	for _, s := range endToEnd {
		if !s.Contract {
			out = append(out, s)
		}
	}
	return append(out, perLayer...)
}
