package experiments

import (
	"fmt"
	"io"
	"math"

	"adaptivegossip/internal/observe"
)

// Figure2Row is one point of paper Figure 2 (reliability degradation of
// static lpbcast as the input rate grows).
type Figure2Row struct {
	Rate             float64 // offered = input rate, msg/s
	AtomicityPct     float64 // messages reaching >95% of receivers
	MeanReceiversPct float64
	AvgDroppedAge    float64 // the §2 text's 8.5 → 3.7 → 2.7 progression
	// Latency (µs) and Hops are this point's pooled delivery
	// distributions.
	Latency observe.HistogramSnapshot
	Hops    observe.HistogramSnapshot
}

// RunFigure2 sweeps the offered rate with the baseline algorithm: one
// sweep over the rate points, rows in input order.
func RunFigure2(base Config, rates []float64, seeds int) ([]Figure2Row, error) {
	cfgs := make([]Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = base
		cfgs[i].Adaptive = false
		cfgs[i].OfferedRate = rate
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	rows := make([]Figure2Row, len(rates))
	for i, r := range res {
		rows[i] = Figure2Row{
			Rate:             rates[i],
			AtomicityPct:     r.Summary.AtomicityPct,
			MeanReceiversPct: r.Summary.MeanReceiversPct,
			AvgDroppedAge:    r.AvgDroppedAge,
			Latency:          r.Latency,
			Hops:             r.Hops,
		}
	}
	return rows, nil
}

// RenderFigure2 prints the Figure 2 series.
func RenderFigure2(w io.Writer, rows []Figure2Row) {
	fmt.Fprintln(w, "# Figure 2 — Reliability degradation (lpbcast, static buffers)")
	fmt.Fprintln(w, "# rate(msg/s)  msgs>95%(%)  mean-receivers(%)  avg-dropped-age(hops)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.1f  %10.1f  %17.1f  %21.2f\n",
			r.Rate, r.AtomicityPct, r.MeanReceiversPct, r.AvgDroppedAge)
	}
	lat, hops := Figure2Distributions(rows)
	renderDistributions(w, "", lat, hops)
}

// Figure4Row is one point of paper Figure 4 (maximum input rate
// sustaining the reliability target, per buffer size) and of the §2.3
// critical-age table (T1).
type Figure4Row struct {
	Buffer        int
	MaxRate       float64 // msg/s: largest rate with mean coverage ≥ target
	AvgDroppedAge float64 // dropped age at that rate — ta's constancy
	CoveragePct   float64 // achieved coverage at MaxRate
}

// RunFigure4 finds, for each buffer size, the maximum aggregate rate
// that still delivers messages to at least targetPct of members on
// average (paper: 95%), by bisection over the offered rate between a
// trickle (0.5 msg/s) and buffer msg/s, since rates scale about
// linearly with the buffer. Every probe of a bisection depends on the
// last, so the bisections advance in lockstep: each step is one sweep
// over the buffers still bisecting. The first step probes the trickle,
// and a buffer that fails even that reports it as the floor; the next
// eight probe each remaining buffer's midpoint.
func RunFigure4(base Config, buffers []int, targetPct float64, seeds int) ([]Figure4Row, error) {
	if targetPct <= 0 {
		targetPct = 95
	}
	rows := make([]Figure4Row, len(buffers))
	lo := make([]float64, len(buffers))
	hi := make([]float64, len(buffers))
	live := make([]int, len(buffers))
	for i, buffer := range buffers {
		lo[i], hi[i], live[i] = 0.5, float64(buffer), i
	}
	for step := 0; step <= 8 && len(live) > 0; step++ {
		cfgs := make([]Config, len(live))
		for j, i := range live {
			cfgs[j] = base
			cfgs[j].Adaptive = false
			cfgs[j].Buffer = buffers[i]
			cfgs[j].OfferedRate = lo[i]
			if step > 0 {
				cfgs[j].OfferedRate = (lo[i] + hi[i]) / 2
			}
		}
		res, err := sweep(cfgs, seeds)
		if err != nil {
			return nil, fmt.Errorf("figure 4: %w", err)
		}
		next := live[:0]
		for j, i := range live {
			rate, covered := cfgs[j].OfferedRate, res[j].Summary.MeanReceiversPct >= targetPct
			if covered || step == 0 {
				rows[i] = Figure4Row{
					Buffer:        buffers[i],
					MaxRate:       rate,
					AvgDroppedAge: res[j].AvgDroppedAge,
					CoveragePct:   res[j].Summary.MeanReceiversPct,
				}
			}
			switch {
			case covered:
				lo[i] = rate
			case step > 0:
				hi[i] = rate
			default:
				continue // even a trickle fails: the floor stands
			}
			next = append(next, i)
		}
		live = next
	}
	return rows, nil
}

// CriticalAge is the §2.3 calibration: the mean of the per-buffer
// dropped ages at the maximum rate. The paper's observation is that
// these are all ≈ equal (5.3 hops in their system). internal/core's
// age marks are fixed from the 5.4 hops this measures at the paper's
// n = 60; a group whose measured ta differs adapts around the wrong
// marks.
func CriticalAge(rows []Figure4Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rows {
		sum += r.AvgDroppedAge
	}
	return sum / float64(len(rows))
}

// CriticalAgeSpread returns the max absolute deviation from the mean —
// how constant the critical age is across buffer sizes.
func CriticalAgeSpread(rows []Figure4Row) float64 {
	mean := CriticalAge(rows)
	var worst float64
	for _, r := range rows {
		if d := math.Abs(r.AvgDroppedAge - mean); d > worst {
			worst = d
		}
	}
	return worst
}

// RenderFigure4 prints the Figure 4 series plus the T1 critical-age
// table.
func RenderFigure4(w io.Writer, rows []Figure4Row) {
	fmt.Fprintln(w, "# Figure 4 / Table T1 — Maximum input rate and critical age per buffer size")
	fmt.Fprintln(w, "# buffer(msg)  max-rate(msg/s)  coverage(%)  avg-dropped-age(hops)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d  %15.2f  %11.1f  %21.2f\n",
			r.Buffer, r.MaxRate, r.CoveragePct, r.AvgDroppedAge)
	}
	fmt.Fprintf(w, "# critical age ta = %.2f hops (max deviation %.2f)\n",
		CriticalAge(rows), CriticalAgeSpread(rows))
}

// Figure6Row is one point of paper Figure 6 (offered, adaptive-allowed
// and maximum rates per buffer size).
type Figure6Row struct {
	Buffer  int
	Offered float64
	Allowed float64 // mean aggregate allowed rate computed by the mechanism
	Maximum float64 // the Figure 4 ideal
	Input   float64 // admitted rate under the allowance
	// Latency (µs) and Hops are this point's pooled delivery
	// distributions.
	Latency observe.HistogramSnapshot
	Hops    observe.HistogramSnapshot
}

// RunFigure6 runs the adaptive algorithm at a constant offered load
// across buffer sizes. fig4 supplies the "maximum" line; rows are
// matched by buffer size (missing buffers get Maximum = 0).
func RunFigure6(base Config, buffers []int, fig4 []Figure4Row, seeds int) ([]Figure6Row, error) {
	maxFor := make(map[int]float64, len(fig4))
	for _, r := range fig4 {
		maxFor[r.Buffer] = r.MaxRate
	}
	cfgs := make([]Config, len(buffers))
	for i, buffer := range buffers {
		cfgs[i] = base
		cfgs[i].Adaptive = true
		cfgs[i].Buffer = buffer
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	rows := make([]Figure6Row, len(buffers))
	for i, r := range res {
		rows[i] = Figure6Row{
			Buffer:  buffers[i],
			Offered: base.OfferedRate,
			Allowed: r.AllowedRate,
			Maximum: maxFor[buffers[i]],
			Input:   r.InputRate,
			Latency: r.Latency,
			Hops:    r.Hops,
		}
	}
	return rows, nil
}

// RenderFigure6 prints the Figure 6 series.
func RenderFigure6(w io.Writer, rows []Figure6Row) {
	fmt.Fprintln(w, "# Figure 6 — Ideal and adaptive rates")
	fmt.Fprintln(w, "# buffer(msg)  offered(msg/s)  allowed(msg/s)  maximum(msg/s)  input(msg/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d  %14.1f  %14.2f  %14.2f  %12.2f\n",
			r.Buffer, r.Offered, r.Allowed, r.Maximum, r.Input)
	}
	lat, hops := Figure6Distributions(rows)
	renderDistributions(w, "", lat, hops)
}
