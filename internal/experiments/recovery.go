package experiments

import (
	"fmt"
	"io"

	"adaptivegossip/internal/recovery"
)

// RecoveryRow is one loss-rate point of the anti-entropy experiment:
// the same workload run twice, with the recovery subsystem off and on.
type RecoveryRow struct {
	Loss float64 // iid message loss probability
	// Delivery ratio (mean % of members reached per message).
	OffCoveragePct float64
	OnCoveragePct  float64
	// Atomicity (messages reaching >95% of members).
	OffAtomicityPct float64
	OnAtomicityPct  float64
	// Recovery activity in the on-run.
	EventsRecovered uint64
	IDsRequested    uint64
	ServeRatio      float64
	// OverheadPct is the on-run's recovery control traffic (requests +
	// responses) as a percentage of its push-gossip messages.
	OverheadPct float64
}

// DefaultRecoveryConfig stresses base so that pure push gossip actually
// loses events under iid loss: the buffer is sized well below one
// round's event births, so each event's push window is only a couple of
// rounds and a lost transmission is frequently the event's last chance.
// This is the regime the recovery subsystem exists for — with the
// paper's roomy defaults, gossip redundancy alone absorbs 20% loss and
// both curves sit at 100%.
func DefaultRecoveryConfig(base Config) Config {
	cfg := base
	cfg.Adaptive = false // isolate the repair mechanism from rate adaptation
	// Buffer ≈ one round of event births: each event is pushed for
	// about one round before capacity eviction ends its window, the
	// knee of the reliability curve (paper Figure 4).
	if births := int(cfg.OfferedRate * cfg.Period.Seconds()); births > 0 {
		cfg.Buffer = births
	}
	cfg.MaxAge = 8
	// Budget sized to the per-round event volume so repair keeps up
	// with loss at the sweep's upper end.
	cfg.RecoveryBudget = 128
	return cfg
}

// RunRecovery sweeps the loss rate and measures delivery with the
// anti-entropy subsystem disabled and enabled. Everything else —
// workload, seeds, membership — is identical between the paired runs,
// which are adjacent entries of one sweep.
func RunRecovery(base Config, losses []float64, seeds int) ([]RecoveryRow, error) {
	cfgs := make([]Config, 0, 2*len(losses))
	for _, loss := range losses {
		cfg := base
		cfg.Loss = loss
		for _, on := range []bool{false, true} {
			cfg.Recovery = on
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := sweep(cfgs, seeds)
	if err != nil {
		return nil, fmt.Errorf("recovery experiment: %w", err)
	}
	rows := make([]RecoveryRow, len(losses))
	for i, loss := range losses {
		off, on := res[2*i], res[2*i+1]
		rows[i] = RecoveryRow{
			Loss:            loss,
			OffCoveragePct:  off.Summary.MeanReceiversPct,
			OnCoveragePct:   on.Summary.MeanReceiversPct,
			OffAtomicityPct: off.Summary.AtomicityPct,
			OnAtomicityPct:  on.Summary.AtomicityPct,
			EventsRecovered: on.Recovery.EventsRecovered,
			IDsRequested:    on.Recovery.IDsRequested,
			ServeRatio:      serveRatio(on.Recovery),
		}
		if g := on.Network.GossipSent; g > 0 {
			ctrl := on.Network.RecoveryRequestSent + on.Network.RecoveryResponseSent
			rows[i].OverheadPct = 100 * float64(ctrl) / float64(g)
		}
	}
	return rows, nil
}

// serveRatio is the fraction of requested identifiers the group could
// serve from its retransmission stores (1 when nothing was requested).
func serveRatio(s recovery.Stats) float64 {
	total := s.EventsServed + s.EventsUnserved
	if total == 0 {
		return 1
	}
	return float64(s.EventsServed) / float64(total)
}

// RenderRecovery prints the loss-sweep table.
func RenderRecovery(w io.Writer, rows []RecoveryRow) {
	fmt.Fprintln(w, "# Recovery — Delivery ratio vs loss rate, anti-entropy off/on")
	fmt.Fprintln(w, "# loss(%)  coverage-off(%)  coverage-on(%)  atomic-off(%)  atomic-on(%)  recovered  requested  served(%)  overhead(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.1f  %15.2f  %14.2f  %13.1f  %12.1f  %9d  %9d  %9.1f  %11.2f\n",
			100*r.Loss, r.OffCoveragePct, r.OnCoveragePct, r.OffAtomicityPct, r.OnAtomicityPct,
			r.EventsRecovered, r.IDsRequested, 100*r.ServeRatio, r.OverheadPct)
	}
}
