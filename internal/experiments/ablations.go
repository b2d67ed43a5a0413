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

// RunAblationRandomization compares the paper's randomized increase
// (pr<1) against synchronized increases (pr=1) in an overloaded group:
// without randomization all senders surge together and the allowed rate
// oscillates more (paper §3.3).
func RunAblationRandomization(base Config, seeds int) ([]AblationRow, error) {
	prs := []float64{0.25, 1.0}
	rows := make([]AblationRow, len(prs))
	err := forEach(len(prs), func(i int) error {
		pr := prs[i]
		cfg := base
		cfg.Adaptive = true
		cfg.Buffer = 60
		cfg.OfferedRate = 30
		cfg.Core = DefaultExperimentCore(cfg.OfferedRate / float64(orAll(cfg.Senders, cfg.N)))
		cfg.Core.IncreaseProb = pr
		res, err := RunSeeds(cfg, seeds)
		if err != nil {
			return fmt.Errorf("ablation randomization pr=%v: %w", pr, err)
		}
		mean, std := allowedStats(res.AllowedSeries, cfg.Warmup, cfg.Warmup+cfg.Duration, res.Config.Period)
		rows[i] = AblationRow{
			Study:        "A1 randomized increase",
			Variant:      fmt.Sprintf("pr=%.2f", pr),
			AllowedMean:  mean,
			AllowedStd:   std,
			AtomicityPct: res.Summary.AtomicityPct,
			InputRate:    res.InputRate,
			Note:         "higher std = synchronized surges",
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblationTokenCheck compares the avgTokens usage guard on and off
// with a sender population offering well below capacity: without the
// guard the unused allowance inflates toward MaxRate (paper §3.3's
// inflated-allowance attack).
func RunAblationTokenCheck(base Config, seeds int) ([]AblationRow, error) {
	variants := []bool{false, true}
	rows := make([]AblationRow, len(variants))
	err := forEach(len(variants), func(i int) error {
		disabled := variants[i]
		cfg := base
		cfg.Adaptive = true
		cfg.Buffer = 150
		cfg.OfferedRate = 10 // far below the ~37 msg/s capacity
		share := cfg.OfferedRate / float64(orAll(cfg.Senders, cfg.N))
		cfg.Core = DefaultExperimentCore(share)
		cfg.Core.MaxRate = 20 * share // room to inflate into
		cfg.Core.DisableTokenCheck = disabled
		res, err := RunSeeds(cfg, seeds)
		if err != nil {
			return fmt.Errorf("ablation token check disabled=%v: %w", disabled, err)
		}
		mean, std := allowedStats(res.AllowedSeries, cfg.Warmup, cfg.Warmup+cfg.Duration, res.Config.Period)
		rows[i] = AblationRow{
			Study:        "A2 avgTokens guard",
			Variant:      fmt.Sprintf("check=%v", !disabled),
			AllowedMean:  mean,
			AllowedStd:   std,
			AtomicityPct: res.Summary.AtomicityPct,
			InputRate:    res.InputRate,
			Note:         fmt.Sprintf("offered %.1f; inflation = allowed ≫ offered", cfg.OfferedRate),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblationWindow varies W in a recovery scenario: 20% of nodes start
// constrained and grow mid-run. Small W reclaims capacity fast but
// flaps; large W holds the stale minimum for W periods (paper §3.4).
func RunAblationWindow(base Config, windows []int, seeds int) ([]AblationRow, error) {
	rows := make([]AblationRow, len(windows))
	affected := workload.FirstFraction(base.N, 0.2)
	err := forEach(len(windows), func(i int) error {
		w := windows[i]
		cfg := base
		cfg.Adaptive = true
		cfg.Buffer = 120
		cfg.OfferedRate = 30
		cfg.Warmup = 0
		grow := cfg.Duration / 2
		cfg.Resizes = []workload.Resize{
			{At: 0, Nodes: affected, Capacity: 45},
			{At: grow, Nodes: affected, Capacity: 120},
		}
		cfg.Core = DefaultExperimentCore(cfg.OfferedRate / float64(orAll(cfg.Senders, cfg.N)))
		cfg.Core.Window = w
		res, err := RunSeeds(cfg, seeds)
		if err != nil {
			return fmt.Errorf("ablation window W=%d: %w", w, err)
		}
		// Measure the recovery half only: how much of the restored
		// capacity the group reclaims.
		mean, std := allowedStats(res.AllowedSeries, grow, cfg.Duration, res.Config.Period)
		rows[i] = AblationRow{
			Study:        "A3 estimate window",
			Variant:      fmt.Sprintf("W=%d", w),
			AllowedMean:  mean,
			AllowedStd:   std,
			AtomicityPct: res.Summary.AtomicityPct,
			InputRate:    res.InputRate,
			Note:         "mean allowed in the post-recovery half",
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblationAlpha varies the EMA weight under overload: a low α makes
// avgAge noisy and the allowed rate oscillate (paper §3.4).
func RunAblationAlpha(base Config, alphas []float64, seeds int) ([]AblationRow, error) {
	rows := make([]AblationRow, len(alphas))
	err := forEach(len(alphas), func(i int) error {
		a := alphas[i]
		cfg := base
		cfg.Adaptive = true
		cfg.Buffer = 60
		cfg.OfferedRate = 30
		cfg.Core = DefaultExperimentCore(cfg.OfferedRate / float64(orAll(cfg.Senders, cfg.N)))
		cfg.Core.Alpha = a
		res, err := RunSeeds(cfg, seeds)
		if err != nil {
			return fmt.Errorf("ablation alpha=%v: %w", a, err)
		}
		mean, std := allowedStats(res.AllowedSeries, cfg.Warmup, cfg.Warmup+cfg.Duration, res.Config.Period)
		rows[i] = AblationRow{
			Study:        "A4 EMA weight",
			Variant:      fmt.Sprintf("alpha=%.2f", a),
			AllowedMean:  mean,
			AllowedStd:   std,
			AtomicityPct: res.Summary.AtomicityPct,
			InputRate:    res.InputRate,
			Note:         "higher std = noisier congestion signal",
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblations runs the full A1–A4 battery. The four studies are
// independent and fan out on the package worker pool; rows keep the
// A1..A4 order.
func RunAblations(base Config, seeds int) ([]AblationRow, error) {
	studies := []func() ([]AblationRow, error){
		func() ([]AblationRow, error) { return RunAblationRandomization(base, seeds) },
		func() ([]AblationRow, error) { return RunAblationTokenCheck(base, seeds) },
		func() ([]AblationRow, error) { return RunAblationWindow(base, []int{1, 2, 4}, seeds) },
		func() ([]AblationRow, error) { return RunAblationAlpha(base, []float64{0.5, 0.9}, seeds) },
	}
	perStudy := make([][]AblationRow, len(studies))
	err := forEach(len(studies), func(i int) error {
		r, err := studies[i]()
		if err != nil {
			return err
		}
		perStudy[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, r := range perStudy {
		rows = append(rows, r...)
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
