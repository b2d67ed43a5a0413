package experiments

import (
	"fmt"
	"io"
	"time"

	"adaptivegossip/internal/workload"
)

// Figure9Config describes the paper's dynamic-buffer scenario (§4,
// "Adaptation to Dynamic Buffer Size"): the system starts uncongested,
// a fraction of nodes shrink their buffers at ChangeAt1, then partially
// recover at ChangeAt2.
type Figure9Config struct {
	// Base supplies group size, fanout, period, load, seeds. Warmup and
	// Duration are overridden: the whole Total window is measured.
	Base Config
	// InitialBuffer, ReducedBuffer, RecoveredBuffer are the three
	// capacities (paper: 90 → 45 → 60).
	InitialBuffer   int
	ReducedBuffer   int
	RecoveredBuffer int
	// Fraction of nodes affected (paper: 20%).
	Fraction float64
	// ChangeAt1, ChangeAt2 are the resize instants (paper: ≈150s and
	// ≈300s on a 0–450s time axis).
	ChangeAt1 time.Duration
	ChangeAt2 time.Duration
	// Total is the experiment length.
	Total time.Duration
	// IdealFor maps a buffer capacity to the ideal maximum rate (the
	// dotted lines of Fig. 9a). Supply Figure4Fit(fig4Rows) or nil to
	// omit the ideal series.
	IdealFor func(buffer int) float64
}

// DefaultFigure9Config reproduces the paper's scenario on top of base.
func DefaultFigure9Config(base Config) Figure9Config {
	base.OfferedRate = 20
	return Figure9Config{
		Base:            base,
		InitialBuffer:   90,
		ReducedBuffer:   45,
		RecoveredBuffer: 60,
		Fraction:        0.2,
		ChangeAt1:       150 * time.Second,
		ChangeAt2:       300 * time.Second,
		Total:           450 * time.Second,
	}
}

// Figure4Fit builds an IdealFor function by linear interpolation over
// Figure 4 rows (extrapolating with the nearest slope outside the
// measured range).
func Figure4Fit(rows []Figure4Row) func(int) float64 {
	if len(rows) == 0 {
		return nil
	}
	return func(buffer int) float64 {
		// rows are produced in ascending buffer order.
		if buffer <= rows[0].Buffer {
			return rows[0].MaxRate * float64(buffer) / float64(rows[0].Buffer)
		}
		for i := 1; i < len(rows); i++ {
			if buffer <= rows[i].Buffer {
				lo, hi := rows[i-1], rows[i]
				t := float64(buffer-lo.Buffer) / float64(hi.Buffer-lo.Buffer)
				return lo.MaxRate + t*(hi.MaxRate-lo.MaxRate)
			}
		}
		last := rows[len(rows)-1]
		return last.MaxRate * float64(buffer) / float64(last.Buffer)
	}
}

// Figure9Point is one bucket of the dynamic scenario's time series.
type Figure9Point struct {
	Start time.Duration // offset from run start
	// AllowedRate is the aggregate allowed rate (adaptive run).
	AllowedRate float64
	// IdealRate is the per-configuration maximum (0 if no IdealFor).
	IdealRate float64
	// AtomicityAdaptive / AtomicityLpbcast: % of messages born in this
	// bucket delivered to >95% of members.
	AtomicityAdaptive float64
	AtomicityLpbcast  float64
	// Messages born in the bucket (adaptive run).
	Messages int
}

// Figure9Result is the full dynamic-scenario output.
type Figure9Result struct {
	Config   Figure9Config
	Bucket   time.Duration
	Points   []Figure9Point
	Adaptive RunResult
	Baseline RunResult
}

// resizeSchedule builds the workload schedule for the scenario.
func (c Figure9Config) resizeSchedule() []workload.Resize {
	affected := workload.FirstFraction(c.Base.N, c.Fraction)
	return []workload.Resize{
		{At: c.ChangeAt1, Nodes: affected, Capacity: c.ReducedBuffer},
		{At: c.ChangeAt2, Nodes: affected, Capacity: c.RecoveredBuffer},
	}
}

func (c Figure9Config) runConfig(adaptive bool) Config {
	cfg := c.Base
	cfg.Buffer = c.InitialBuffer
	cfg.Adaptive = adaptive
	cfg.Warmup = 0
	cfg.Duration = c.Total
	cfg.Resizes = c.resizeSchedule()
	return cfg
}

// bufferAt returns the constrained-minimum capacity at offset t.
func (c Figure9Config) bufferAt(t time.Duration) int {
	switch {
	case t >= c.ChangeAt2:
		return c.RecoveredBuffer
	case t >= c.ChangeAt1:
		return c.ReducedBuffer
	default:
		return c.InitialBuffer
	}
}

// RunFigure9Sim runs the dynamic scenario on the discrete-event
// simulator, once adaptive and once with the baseline (a two-config
// sweep), and assembles the Fig. 9(a)+(b) series.
func RunFigure9Sim(cfg Figure9Config) (Figure9Result, error) {
	res, err := sweep([]Config{cfg.runConfig(true), cfg.runConfig(false)}, 1)
	if err != nil {
		return Figure9Result{}, fmt.Errorf("figure 9: %w", err)
	}
	return assembleFigure9(cfg, res[0], res[1]), nil
}

func assembleFigure9(cfg Figure9Config, ad, lp RunResult) Figure9Result {
	bucket := cfg.Base.Period
	n := len(ad.AtomicitySeries)
	if len(lp.AtomicitySeries) < n {
		n = len(lp.AtomicitySeries)
	}
	points := make([]Figure9Point, 0, n)
	for i := 0; i < n; i++ {
		start := time.Duration(i) * bucket
		if start >= cfg.Total {
			break // exclude the drain tail: its messages are cut off
		}
		p := Figure9Point{
			Start:             start,
			AtomicityAdaptive: ad.AtomicitySeries[i].AtomicityPct,
			AtomicityLpbcast:  lp.AtomicitySeries[i].AtomicityPct,
			Messages:          ad.AtomicitySeries[i].Messages,
		}
		if i < len(ad.AllowedSeries) && ad.AllowedSeries[i].N > 0 {
			p.AllowedRate = ad.AllowedSeries[i].Mean
		}
		if cfg.IdealFor != nil {
			p.IdealRate = cfg.IdealFor(cfg.bufferAt(start))
		}
		points = append(points, p)
	}
	return Figure9Result{Config: cfg, Bucket: bucket, Points: points, Adaptive: ad, Baseline: lp}
}

// PhaseSummary aggregates a Figure9Result over one configuration phase.
type PhaseSummary struct {
	Name              string
	From, To          time.Duration
	MeanAllowed       float64
	IdealRate         float64
	AtomicityAdaptive float64
	AtomicityLpbcast  float64
}

// Phases summarizes the three configuration regimes, skipping the
// settle buckets right after each change (the paper observes ≈60s of
// stabilization).
func (r Figure9Result) Phases(settle time.Duration) []PhaseSummary {
	cfg := r.Config
	spans := []struct {
		name     string
		from, to time.Duration
	}{
		{fmt.Sprintf("buffer=%d", cfg.InitialBuffer), settle, cfg.ChangeAt1},
		{fmt.Sprintf("buffer=%d", cfg.ReducedBuffer), cfg.ChangeAt1 + settle, cfg.ChangeAt2},
		{fmt.Sprintf("buffer=%d", cfg.RecoveredBuffer), cfg.ChangeAt2 + settle, cfg.Total},
	}
	out := make([]PhaseSummary, 0, 3)
	for _, span := range spans {
		s := PhaseSummary{Name: span.name, From: span.from, To: span.to}
		if cfg.IdealFor != nil {
			s.IdealRate = cfg.IdealFor(cfg.bufferAt(span.from))
		}
		var nAllowed, nAtomA, nAtomL int
		for _, p := range r.Points {
			if p.Start < span.from || p.Start >= span.to {
				continue
			}
			if p.AllowedRate > 0 {
				s.MeanAllowed += p.AllowedRate
				nAllowed++
			}
			if p.Messages > 0 {
				s.AtomicityAdaptive += p.AtomicityAdaptive
				nAtomA++
				s.AtomicityLpbcast += p.AtomicityLpbcast
				nAtomL++
			}
		}
		if nAllowed > 0 {
			s.MeanAllowed /= float64(nAllowed)
		}
		if nAtomA > 0 {
			s.AtomicityAdaptive /= float64(nAtomA)
		}
		if nAtomL > 0 {
			s.AtomicityLpbcast /= float64(nAtomL)
		}
		out = append(out, s)
	}
	return out
}

// RenderFigure9 prints the time series and the per-phase summary.
func RenderFigure9(w io.Writer, r Figure9Result) {
	fmt.Fprintln(w, "# Figure 9 — Dynamic buffer size")
	fmt.Fprintf(w, "# schedule: buffer %d → %d @ %v → %d @ %v (%.0f%% of nodes), offered %.1f msg/s\n",
		r.Config.InitialBuffer, r.Config.ReducedBuffer, r.Config.ChangeAt1,
		r.Config.RecoveredBuffer, r.Config.ChangeAt2,
		100*r.Config.Fraction, r.Config.Base.OfferedRate)
	fmt.Fprintln(w, "# t(s)  allowed(msg/s)  ideal(msg/s)  atomic-adaptive(%)  atomic-lpbcast(%)  msgs")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6.0f  %14.2f  %12.2f  %18.1f  %17.1f  %4d\n",
			p.Start.Seconds(), p.AllowedRate, p.IdealRate,
			p.AtomicityAdaptive, p.AtomicityLpbcast, p.Messages)
	}
	fmt.Fprintln(w, "# phase summary (settle 60s excluded)")
	for _, s := range r.Phases(60 * time.Second) {
		fmt.Fprintf(w, "# %-12s allowed=%6.2f ideal=%6.2f atomic(ad)=%5.1f%% atomic(lp)=%5.1f%%\n",
			s.Name, s.MeanAllowed, s.IdealRate, s.AtomicityAdaptive, s.AtomicityLpbcast)
	}
	renderDistributions(w, "adaptive", r.Adaptive.Latency, r.Adaptive.Hops)
	renderDistributions(w, "lpbcast", r.Baseline.Latency, r.Baseline.Hops)
}
