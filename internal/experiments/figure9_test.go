package experiments

import (
	"strings"
	"testing"
	"time"
)

// smallFigure9 shrinks the dynamic scenario: 20 nodes, capacities
// 30 → 10 → 20, over 300 virtual seconds.
func smallFigure9() Figure9Config {
	base := smallConfig()
	base.OfferedRate = 24 // between max(10)≈9.5 and max(30)≈28 msg/s
	base.Warmup = 0
	return Figure9Config{
		Base:            base,
		InitialBuffer:   30,
		ReducedBuffer:   10,
		RecoveredBuffer: 20,
		Fraction:        0.2,
		ChangeAt1:       100 * time.Second,
		ChangeAt2:       200 * time.Second,
		Total:           300 * time.Second,
		IdealFor:        Figure4Fit([]Figure4Row{{Buffer: 10, MaxRate: 9.5}, {Buffer: 30, MaxRate: 28}}),
	}
}

func TestFigure9SimAdaptsToBufferChanges(t *testing.T) {
	res, err := RunFigure9Sim(smallFigure9())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no series points")
	}
	phases := res.Phases(40 * time.Second)
	if len(phases) != 3 {
		t.Fatalf("phases %d", len(phases))
	}
	initial, reduced, recovered := phases[0], phases[1], phases[2]
	// The allowance falls when buffers shrink...
	if reduced.MeanAllowed >= 0.8*initial.MeanAllowed {
		t.Fatalf("allowed did not fall on shrink: %.2f → %.2f", initial.MeanAllowed, reduced.MeanAllowed)
	}
	// ...and recovers (partially) when they grow back.
	if recovered.MeanAllowed <= reduced.MeanAllowed {
		t.Fatalf("allowed did not recover: %.2f → %.2f", reduced.MeanAllowed, recovered.MeanAllowed)
	}
	// The adaptive run beats the baseline during the constrained phase.
	if reduced.AtomicityAdaptive < reduced.AtomicityLpbcast+15 {
		t.Fatalf("constrained phase: adaptive %.1f%% vs lpbcast %.1f%%",
			reduced.AtomicityAdaptive, reduced.AtomicityLpbcast)
	}
	var sb strings.Builder
	RenderFigure9(&sb, res)
	if !strings.Contains(sb.String(), "Figure 9") {
		t.Fatal("render missing header")
	}
}

func TestFigure4FitInterpolatesAndExtrapolates(t *testing.T) {
	fit := Figure4Fit([]Figure4Row{{Buffer: 30, MaxRate: 8}, {Buffer: 90, MaxRate: 24}})
	if got := fit(60); got < 15.9 || got > 16.1 {
		t.Fatalf("fit(60) = %v, want 16", got)
	}
	if got := fit(15); got < 3.9 || got > 4.1 {
		t.Fatalf("fit(15) = %v, want 4", got)
	}
	if got := fit(180); got < 47.9 || got > 48.1 {
		t.Fatalf("fit(180) = %v, want 48", got)
	}
	if Figure4Fit(nil) != nil {
		t.Fatal("empty fit should be nil")
	}
}

func TestDefaultFigure9ConfigMatchesPaper(t *testing.T) {
	cfg := DefaultFigure9Config(DefaultConfig())
	if cfg.InitialBuffer != 90 || cfg.ReducedBuffer != 45 || cfg.RecoveredBuffer != 60 {
		t.Fatalf("capacities %d/%d/%d", cfg.InitialBuffer, cfg.ReducedBuffer, cfg.RecoveredBuffer)
	}
	if cfg.Fraction != 0.2 || cfg.Total != 450*time.Second {
		t.Fatalf("fraction/total %v/%v", cfg.Fraction, cfg.Total)
	}
	if cfg.Base.OfferedRate != 20 {
		t.Fatalf("offered %v", cfg.Base.OfferedRate)
	}
}
