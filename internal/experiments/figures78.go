package experiments

import (
	"fmt"
	"io"

	"adaptivegossip/internal/observe"
)

// Figure7Row pairs baseline and adaptive rate/age measurements for one
// buffer size (paper Figure 7 a/b/c).
type Figure7Row struct {
	Buffer int
	// lpbcast: unbounded input equals the offered load.
	LpInput, LpOutput, LpDroppedAge float64
	// adaptive: input tracks the allowance; output equals input when no
	// messages are lost.
	AdInput, AdOutput, AdDroppedAge float64
	// Per-arm pooled delivery distributions: latency in µs, hop count.
	LpLatency, LpHops observe.HistogramSnapshot
	AdLatency, AdHops observe.HistogramSnapshot
}

// Figure8Row pairs baseline and adaptive reliability for one buffer
// size (paper Figure 8 a/b).
type Figure8Row struct {
	Buffer int
	// Average % of receivers per message (Fig. 8a).
	LpMeanReceivers, AdMeanReceivers float64
	// % of messages delivered to >95% of nodes (Fig. 8b).
	LpAtomicity, AdAtomicity float64
}

// RunFigures78 sweeps buffer sizes running the baseline and the
// adaptive algorithm at the same constant offered load, returning both
// figures' rows from the same runs (as the paper does). The two arms of
// each buffer are adjacent entries of one sweep.
func RunFigures78(base Config, buffers []int, seeds int) ([]Figure7Row, []Figure8Row, error) {
	cfgs := make([]Config, 0, 2*len(buffers))
	for _, buffer := range buffers {
		cfg := base
		cfg.Buffer = buffer
		for _, adaptive := range []bool{false, true} {
			cfg.Adaptive = adaptive
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, nil, fmt.Errorf("figure 7/8: %w", err)
	}
	rows7 := make([]Figure7Row, len(buffers))
	rows8 := make([]Figure8Row, len(buffers))
	for i, buffer := range buffers {
		lp, ad := res[2*i], res[2*i+1]
		rows7[i] = Figure7Row{
			Buffer:       buffer,
			LpInput:      lp.InputRate,
			LpOutput:     lp.OutputRate,
			LpDroppedAge: lp.AvgDroppedAge,
			AdInput:      ad.InputRate,
			AdOutput:     ad.OutputRate,
			AdDroppedAge: ad.AvgDroppedAge,
			LpLatency:    lp.Latency,
			LpHops:       lp.Hops,
			AdLatency:    ad.Latency,
			AdHops:       ad.Hops,
		}
		rows8[i] = Figure8Row{
			Buffer:          buffer,
			LpMeanReceivers: lp.Summary.MeanReceiversPct,
			AdMeanReceivers: ad.Summary.MeanReceiversPct,
			LpAtomicity:     lp.Summary.AtomicityPct,
			AdAtomicity:     ad.Summary.AtomicityPct,
		}
	}
	return rows7, rows8, nil
}

// RenderFigure7 prints the Figure 7 series (input rate, output rate and
// dropped age, lpbcast vs adaptive).
func RenderFigure7(w io.Writer, rows []Figure7Row) {
	fmt.Fprintln(w, "# Figure 7 — Rates and average ages (lpbcast vs adaptive)")
	fmt.Fprintln(w, "# buffer(msg)  lp-in(msg/s)  lp-out(msg/s)  lp-age(hops)  ad-in(msg/s)  ad-out(msg/s)  ad-age(hops)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d  %12.2f  %13.2f  %12.2f  %12.2f  %13.2f  %12.2f\n",
			r.Buffer, r.LpInput, r.LpOutput, r.LpDroppedAge,
			r.AdInput, r.AdOutput, r.AdDroppedAge)
	}
	lpLat, lpHops, adLat, adHops := Figure7Distributions(rows)
	renderDistributions(w, "lpbcast", lpLat, lpHops)
	renderDistributions(w, "adaptive", adLat, adHops)
}

// RenderFigure8 prints the Figure 8 series (average receivers and
// atomically delivered messages, lpbcast vs adaptive).
func RenderFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintln(w, "# Figure 8 — Reliability degradation (lpbcast vs adaptive)")
	fmt.Fprintln(w, "# buffer(msg)  lp-receivers(%)  ad-receivers(%)  lp-atomic(%)  ad-atomic(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12d  %15.1f  %15.1f  %12.1f  %12.1f\n",
			r.Buffer, r.LpMeanReceivers, r.AdMeanReceivers, r.LpAtomicity, r.AdAtomicity)
	}
}
