package experiments

import (
	"testing"
	"time"

	"adaptivegossip/internal/recovery"
)

// recoveryTestBase is a reduced-scale config for the loss sweep: small
// enough to run in seconds, stressed enough (via DefaultRecoveryConfig)
// that push gossip visibly loses events under iid loss.
func recoveryTestBase() Config {
	cfg := DefaultConfig()
	cfg.N = 40
	cfg.OfferedRate = 20
	cfg.Warmup = 100 * time.Second
	cfg.Duration = 200 * time.Second
	cfg.Seed = 7
	return DefaultRecoveryConfig(cfg)
}

// TestRecoveryImprovesDeliveryUnderLoss is the subsystem's acceptance
// gate: at every simulated loss rate the recovery-on delivery ratio
// must dominate recovery-off, strictly at ≥10% loss, deterministically
// under the seeded sim RNG.
func TestRecoveryImprovesDeliveryUnderLoss(t *testing.T) {
	losses := []float64{0.05, 0.10, 0.20}
	rows, err := RunRecovery(recoveryTestBase(), losses, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("loss %.0f%%: coverage off %.2f%% on %.2f%%, atomicity off %.1f%% on %.1f%%, recovered %d, overhead %.2f%%",
			100*r.Loss, r.OffCoveragePct, r.OnCoveragePct, r.OffAtomicityPct, r.OnAtomicityPct,
			r.EventsRecovered, r.OverheadPct)
		if r.OnCoveragePct < r.OffCoveragePct {
			t.Errorf("loss %.0f%%: recovery-on coverage %.2f%% below recovery-off %.2f%%",
				100*r.Loss, r.OnCoveragePct, r.OffCoveragePct)
		}
		if r.Loss >= 0.10 {
			if r.OnCoveragePct <= r.OffCoveragePct {
				t.Errorf("loss %.0f%%: recovery-on coverage %.2f%% not strictly above recovery-off %.2f%%",
					100*r.Loss, r.OnCoveragePct, r.OffCoveragePct)
			}
			if r.EventsRecovered == 0 {
				t.Errorf("loss %.0f%%: no events recovered", 100*r.Loss)
			}
		}
	}
}

// TestRecoveryDeliversExactlyOnce runs recovery where eventIds is
// smallest against what the digests and the store remember: a buffer of
// one round's births (4), at 0% and 10% loss. A set that forgets ids in
// arrival order let a member pull, and deliver again, an event it had
// forgotten while peers still advertised and stored it: 188,796 and
// 147,150 repeated deliveries. Replay windows keep every id a peer can
// still offer; Run returns an error on any repeated delivery.
func TestRecoveryDeliversExactlyOnce(t *testing.T) {
	for _, loss := range []float64{0, 0.1} {
		cfg := DefaultRecoveryConfig(sweepConfig())
		cfg.Recovery, cfg.Loss = true, loss
		if cfg.Buffer != 4 {
			t.Fatalf("buffer %d, want one round's births, 4", cfg.Buffer)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.EventsRecovered == 0 {
			t.Errorf("loss %v: no event recovered", loss)
		}
	}
}

// TestRecoveryExperimentDeterministic replays one sweep point and
// expects bit-identical results — the discrete-event sim plus the
// engine's ordered iteration must be reproducible.
func TestRecoveryExperimentDeterministic(t *testing.T) {
	run := func() RecoveryRow {
		rows, err := RunRecovery(recoveryTestBase(), []float64{0.10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0]
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("recovery experiment not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}

func TestServeRatio(t *testing.T) {
	if got := serveRatio(recovery.Stats{}); got != 1 {
		t.Errorf("nothing requested: ServeRatio = %v, want 1", got)
	}
	if got, want := serveRatio(recovery.Stats{EventsServed: 9, EventsUnserved: 1}), 9.0/10.0; got != want {
		t.Errorf("ServeRatio = %v, want %v", got, want)
	}
}
