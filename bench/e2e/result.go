package e2e

import "fmt"

// Metric is one named reading. Samples is the number of observations
// behind a percentile and 0 for everything else.
type Metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// Result is what one untraced run of one workload produced.
type Result struct {
	Workload string
	// E2E holds the end-to-end metrics that apply to the workload;
	// Layer the per-layer readings the public API exports (counter
	// deltas around the window and timings taken around calls).
	E2E   []Metric
	Layer []Metric
	// An operation is one (admitted event, member) pair. It fails if
	// the program got it wrong: delivered twice, delivered with a
	// payload that differs from what was published, or delivered
	// although nobody published it or admission control refused it. A
	// pair still undelivered after the drain is not a failure: gossip
	// is a probabilistic broadcast, how many pairs it reaches is what
	// delivery_ratio and atomicity measure and bound, and the count
	// differs from run to run where a failure count must not.
	OpsAttempted   int64
	OpsFailed      int64
	OpsUndelivered int64
	// Violations lists what the correctness oracle found; empty means
	// the run is correct.
	Violations []string
	// Deliveries is the number of deliveries timestamped inside the
	// measured window, the denominator of the per-delivery costs.
	Deliveries int64
	// SliceCPU holds cpu_us_per_delivery's reading in each slice of the
	// window; their scatter tells a noisy machine from a noisy program.
	SliceCPU []float64
	// MeanCPU is the window's whole CPU time over its deliveries, noise
	// included: what the traced run's totals compare with.
	MeanCPU float64
}

func (r *Result) e2e(name, unit string, v float64) { r.E2E = append(r.E2E, Metric{name, unit, v, 0}) }
func (r *Result) layer(name, unit string, v float64) {
	r.Layer = append(r.Layer, Metric{name, unit, v, 0})
}

func (r *Result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Get finds a metric of the result by name.
func (r *Result) Get(name string) (Metric, bool) {
	for _, set := range [][]Metric{r.E2E, r.Layer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Correct reports whether the oracle found nothing.
func (r *Result) Correct() bool { return len(r.Violations) == 0 }
