package experiments

import (
	"fmt"
	"io"
	"time"

	"adaptivegossip/internal/workload"
)

// ChurnRow is one churn-rate point of the failure-detection experiment:
// the same crash/restart trace run twice, with the detector off and on.
type ChurnRow struct {
	// Rate is the churn intensity in crash events per minute.
	Rate float64
	// Delivery ratio (mean % of members reached per message; crashed
	// members count in the denominator, so both arms share the same
	// unavoidable downtime loss).
	OffCoveragePct float64
	OnCoveragePct  float64
	// Mean view accuracy: % of view entries pointing at live members.
	OffViewAccPct float64
	OnViewAccPct  float64
	// Detector behaviour in the on-run.
	DetectionRounds float64 // mean crash→confirm latency per observer, in rounds
	Confirms        uint64  // confirm verdicts across the group
	FalseConfirms   uint64  // confirms of actually-live nodes (ground truth)
	// OverheadPct is the on-run's probe traffic (pings, acks,
	// ping-reqs) as a percentage of its push-gossip messages.
	OverheadPct float64
}

// DefaultChurnConfig shapes base into the regime the detector exists
// for: every node holds its own view (PerNodeViews), so without
// detection a crashed member keeps soaking up fanout from everyone
// until it restarts. Redundancy is kept deliberately lean (small
// fanout, short event lifetime) so that wasted fanout actually costs
// coverage, as it would at production fan-in.
func DefaultChurnConfig(base Config) Config {
	cfg := base
	cfg.Adaptive = false // isolate the detector from rate adaptation
	cfg.PerNodeViews = true
	cfg.Fanout = 3
	cfg.MaxAge = 5
	// Roomy buffer: coverage differences should come from fanout
	// targeting, not capacity drops.
	if births := int(cfg.OfferedRate * cfg.Period.Seconds()); births > 0 {
		cfg.Buffer = 4 * births
	}
	// Suspicion sized so detection completes well inside a typical
	// downtime, leaving rounds of reclaimed fanout.
	cfg.FailureSuspicionRounds = 4
	return cfg
}

// ChurnDowntime is the modelled outage length in rounds: long enough
// that the detector's confirm (≈ probe + indirect + suspicion rounds)
// buys many rounds of reclaimed fanout before the node returns.
const ChurnDowntime = 40

// RunChurn sweeps the churn rate (crash events per minute) and measures
// delivery and view accuracy with the failure detector disabled and
// enabled. The crash/restart trace, workload and membership are
// identical between the paired runs, which are adjacent entries of one
// sweep.
func RunChurn(base Config, rates []float64, seeds int) ([]ChurnRow, error) {
	downFor := time.Duration(ChurnDowntime) * base.Period
	cfgs := make([]Config, 0, 2*len(rates))
	for _, rate := range rates {
		cfg := base
		// Churn runs from shortly after start through the end of the
		// measured window; restarts beyond the window land in the drain.
		cfg.Crashes, cfg.Restarts = workload.ChurnTrace(
			cfg.N, rate/60, downFor, cfg.Warmup/2, cfg.Warmup/2+cfg.Duration, cfg.Seed)
		for _, on := range []bool{false, true} {
			cfg.FailureDetection = on
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, fmt.Errorf("churn experiment: %w", err)
	}
	rows := make([]ChurnRow, len(rates))
	for i, rate := range rates {
		off, on := res[2*i], res[2*i+1]
		rows[i] = ChurnRow{
			Rate:            rate,
			OffCoveragePct:  off.Summary.MeanReceiversPct,
			OnCoveragePct:   on.Summary.MeanReceiversPct,
			OffViewAccPct:   off.ViewAccuracyPct,
			OnViewAccPct:    on.ViewAccuracyPct,
			DetectionRounds: on.DetectionLatencyRounds,
			Confirms:        on.Failure.Confirms,
			FalseConfirms:   on.FalseConfirms,
		}
		if g := on.Network.GossipSent; g > 0 {
			rows[i].OverheadPct = 100 * float64(on.Network.ProbeSent()) / float64(g)
		}
	}
	return rows, nil
}

// RenderChurn prints the churn-sweep table.
func RenderChurn(w io.Writer, rows []ChurnRow) {
	fmt.Fprintln(w, "# Churn — Delivery ratio and view accuracy vs churn rate, failure detection off/on")
	fmt.Fprintln(w, "# churn(/min)  coverage-off(%)  coverage-on(%)  viewacc-off(%)  viewacc-on(%)  detect(rounds)  confirms  false+  overhead(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.1f  %15.2f  %14.2f  %14.2f  %13.2f  %14.1f  %8d  %6d  %11.2f\n",
			r.Rate, r.OffCoveragePct, r.OnCoveragePct, r.OffViewAccPct, r.OnViewAccPct,
			r.DetectionRounds, r.Confirms, r.FalseConfirms, r.OverheadPct)
	}
}
