package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"adaptivegossip/internal/workload"
)

// AblationRow is one measurement of an ablation study (A1–A4): the
// design-choice knobs the paper argues for in §3.3–§3.4.
type AblationRow struct {
	Study   string
	Variant string
	// AllowedMean/AllowedStd describe the aggregate allowed rate in the
	// measured window (oscillation shows up in the std).
	AllowedMean float64
	AllowedStd  float64
	// AtomicityPct is the reliability achieved.
	AtomicityPct float64
	// InputRate is the admitted load.
	InputRate float64
	// Note carries a per-study reading aid.
	Note string
}

// allowedStats computes mean/std of the aggregate allowed-rate series
// within [from, to) offsets.
func allowedStats(series []GaugePoint, epochOffsetFrom, epochOffsetTo time.Duration, bucket time.Duration) (mean, std float64) {
	var xs []float64
	for i, p := range series {
		off := time.Duration(i) * bucket
		if off < epochOffsetFrom || off >= epochOffsetTo {
			continue
		}
		if p.N > 0 {
			xs = append(xs, p.Mean)
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// ablation is one variant of an ablation study: the config it runs and
// the offsets of the window its allowed-rate summary covers.
type ablation struct {
	study, variant, note string
	cfg                  Config
	from, to             time.Duration
}

// RunAblations runs the A1–A4 battery as one sweep, rows in A1..A4
// order:
//   - A1 compares the paper's randomized increase (pr<1) against
//     synchronized increases (pr=1) in an overloaded group: without
//     randomization all senders surge together and the allowed rate
//     oscillates more (paper §3.3).
//   - A2 switches the avgTokens usage guard on and off with senders
//     offering well below capacity: without the guard the unused
//     allowance inflates toward MaxRate (paper §3.3's
//     inflated-allowance attack).
//   - A3 varies W in a recovery scenario: 20% of nodes start
//     constrained and grow mid-run. Small W reclaims capacity fast but
//     flaps; large W holds the stale minimum for W periods (paper §3.4).
//   - A4 varies the EMA weight under overload: a low α makes avgAge
//     noisy and the allowed rate oscillate (paper §3.4).
func RunAblations(base Config, seeds int) ([]AblationRow, error) {
	// adaptive is base running the mechanism with its default
	// parameters, which each study then varies.
	adaptive := func(buffer int, offered float64) Config {
		cfg := base
		cfg.Adaptive = true
		cfg.Buffer = buffer
		cfg.OfferedRate = offered
		cfg.Core = cfg.withDefaults().Core
		return cfg
	}
	measured := func(study, variant, note string, cfg Config) ablation {
		return ablation{study, variant, note, cfg, cfg.Warmup, cfg.Warmup + cfg.Duration}
	}
	var table []ablation
	for _, pr := range []float64{0.25, 1.0} {
		cfg := adaptive(60, 30)
		cfg.Core.IncreaseProb = pr
		table = append(table, measured("A1 randomized increase", fmt.Sprintf("pr=%.2f", pr),
			"higher std = synchronized surges", cfg))
	}
	for _, disabled := range []bool{false, true} {
		// Offered far below the ~37 msg/s capacity, with room to
		// inflate into.
		cfg := adaptive(150, 10)
		cfg.Core.MaxRate = 20 * cfg.Core.InitialRate
		cfg.Core.DisableTokenCheck = disabled
		table = append(table, measured("A2 avgTokens guard", fmt.Sprintf("check=%v", !disabled),
			fmt.Sprintf("offered %.1f; inflation = allowed ≫ offered", cfg.OfferedRate), cfg))
	}
	affected := workload.FirstFraction(base.N, 0.2)
	for _, w := range []int{1, 2, 4} {
		cfg := adaptive(120, 30)
		cfg.Warmup = 0
		grow := cfg.Duration / 2
		cfg.Resizes = []workload.Resize{
			{At: 0, Nodes: affected, Capacity: 45},
			{At: grow, Nodes: affected, Capacity: 120},
		}
		cfg.Core.Window = w
		// Measure the recovery half only: how much of the restored
		// capacity the group reclaims.
		table = append(table, ablation{"A3 estimate window", fmt.Sprintf("W=%d", w),
			"mean allowed in the post-recovery half", cfg, grow, cfg.Duration})
	}
	for _, a := range []float64{0.5, 0.9} {
		cfg := adaptive(60, 30)
		cfg.Core.Alpha = a
		table = append(table, measured("A4 EMA weight", fmt.Sprintf("alpha=%.2f", a),
			"higher std = noisier congestion signal", cfg))
	}

	cfgs := make([]Config, len(table))
	for i, a := range table {
		cfgs[i] = a.cfg
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}
	rows := make([]AblationRow, len(table))
	for i, a := range table {
		mean, std := allowedStats(res[i].AllowedSeries, a.from, a.to, a.cfg.Period)
		rows[i] = AblationRow{
			Study:        a.study,
			Variant:      a.variant,
			AllowedMean:  mean,
			AllowedStd:   std,
			AtomicityPct: res[i].Summary.AtomicityPct,
			InputRate:    res[i].InputRate,
			Note:         a.note,
		}
	}
	return rows, nil
}

// RenderAblations prints the ablation battery.
func RenderAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "# Ablations — design-choice studies")
	fmt.Fprintln(w, "# study                    variant        allowed(msg/s)  std     atomic(%)  input(msg/s)  note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s  %-12s  %13.2f  %6.2f  %8.1f  %11.2f  %s\n",
			r.Study, r.Variant, r.AllowedMean, r.AllowedStd, r.AtomicityPct, r.InputRate, r.Note)
	}
}
