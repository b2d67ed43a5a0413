package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/race"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/workload"
)

// smallConfig is a fast (sub-second) experiment configuration used by
// the shape tests: 20 nodes, fanout 3, 1-second virtual rounds.
func smallConfig() Config {
	return Config{
		N:           20,
		Fanout:      3,
		Period:      time.Second,
		MaxAge:      10,
		Buffer:      30,
		OfferedRate: 4,
		PayloadSize: 8,
		Warmup:      40 * time.Second,
		Duration:    120 * time.Second,
		Seed:        11,
	}
}

// TestConfigValidate: each case is refused by Validate, and by both run
// entry points before anything runs; where want is set, the error names
// the field. A zero period once reached the gauge's bucket division, a
// NaN rate offered nothing and an infinite one an emission every
// nanosecond.
func TestConfigValidate(t *testing.T) {
	const badRate, badPeriod = "offered rate must be finite and non-negative", "period must be positive"
	const badLoss, badWeight = "loss must be a probability in [0, 1]", "proximity weight"
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"too few nodes", func(c *Config) { c.N = 1 }, ""},
		{"negative rate", func(c *Config) { c.OfferedRate = -1 }, badRate},
		{"NaN rate", func(c *Config) { c.OfferedRate = math.NaN() }, badRate},
		{"infinite rate", func(c *Config) { c.OfferedRate = math.Inf(1) }, badRate},
		{"negative infinite rate", func(c *Config) { c.OfferedRate = math.Inf(-1) }, badRate},
		{"zero period", func(c *Config) { c.Period = 0 }, badPeriod},
		{"negative period", func(c *Config) { c.Period = -time.Second }, badPeriod},
		{"zero duration", func(c *Config) { c.Duration = 0 }, ""},
		{"negative warmup", func(c *Config) { c.Warmup = -time.Second }, ""},
		{"bad resize", func(c *Config) {
			c.Resizes = []workload.Resize{{At: 0, Nodes: []int{99}, Capacity: 5}}
		}, ""},
		{"bad topology", func(c *Config) { c.Topology = sim.Topology{Regions: 2} }, ""},
		{"negative view size", func(c *Config) { c.ViewSize = -1 }, ""},
		{"views with per-node registries", func(c *Config) { c.ViewSize, c.PerNodeViews = 8, true }, ""},
		{"views with joins", func(c *Config) {
			c.ViewSize = 8
			c.Joins = []workload.Join{{At: time.Second, Nodes: []int{3}}}
		}, ""},
		{"proximity weight below 1", func(c *Config) {
			c.ViewSize, c.Topology, c.ProximityWeight = 8, twoRegions(), 0.5
		}, ""},
		{"NaN proximity weight", func(c *Config) {
			c.ViewSize, c.Topology, c.ProximityWeight = 8, twoRegions(), math.NaN()
		}, badWeight},
		{"infinite proximity weight", func(c *Config) {
			c.ViewSize, c.Topology, c.ProximityWeight = 8, twoRegions(), math.Inf(1)
		}, badWeight},
		{"negative loss", func(c *Config) { c.Loss = -0.2 }, badLoss},
		{"NaN loss", func(c *Config) { c.Loss = math.NaN() }, badLoss},
		{"loss above 1", func(c *Config) { c.Loss = 1.5 }, badLoss},
		{"proximity weight without views", func(c *Config) { c.Topology, c.ProximityWeight = twoRegions(), 8 }, ""},
		{"proximity weight in one region", func(c *Config) {
			c.ViewSize, c.ProximityWeight = 8, 8
			c.Topology = sim.NewTwoTierTopology(1, sim.LatencyClass{Max: time.Millisecond}, sim.LatencyClass{})
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig().withDefaults()
			tc.mut(&cfg)
			check := func(how string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: got %v, want an error containing %q", how, err, tc.want)
				}
			}
			check("Validate", cfg.Validate())
			_, err := Run(cfg)
			check("Run", err)
			_, err = RunRuntime(cfg)
			check("RunRuntime", err)
		})
	}
	if err := smallConfig().withDefaults().Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	if err := DefaultConfig().withDefaults().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	scale := DefaultScaleConfig().Base
	scale.N = 100
	if err := scale.withDefaults().Validate(); err != nil {
		t.Fatalf("the scale base config at n=100 invalid: %v", err)
	}
}

// twoRegions is a two-region topology with millisecond links.
func twoRegions() sim.Topology {
	return sim.NewTwoTierTopology(2,
		sim.LatencyClass{Min: time.Millisecond, Max: 2 * time.Millisecond},
		sim.LatencyClass{Min: 5 * time.Millisecond, Max: 10 * time.Millisecond})
}

func TestRunBaselineHealthyAtLowRate(t *testing.T) {
	cfg := smallConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Messages < 300 {
		t.Fatalf("only %d messages measured", res.Summary.Messages)
	}
	if res.Summary.MeanReceiversPct < 97 {
		t.Fatalf("mean receivers %.1f%%, want healthy ≥97%%", res.Summary.MeanReceiversPct)
	}
	if res.Summary.AtomicityPct < 90 {
		t.Fatalf("atomicity %.1f%%, want ≥90%% at low rate", res.Summary.AtomicityPct)
	}
	// Input equals offered for the unbounded baseline.
	if res.InputRate < 3.8 || res.InputRate > 4.2 {
		t.Fatalf("input rate %.2f, want ≈4", res.InputRate)
	}
}

// Capacity note: with T=1s, F=3, B=30, the maximum reliable rate is
// ≈28 msg/s (rate ∝ F·B/T), so "overload" in these tests means ≳100.

func TestRunBaselineDegradesUnderOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.OfferedRate = 120 // ≈4× capacity for buffer 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanReceiversPct > 90 {
		t.Fatalf("mean receivers %.1f%% under overload, want degradation", res.Summary.MeanReceiversPct)
	}
	if res.Summary.AtomicityPct > 30 {
		t.Fatalf("atomicity %.1f%% under overload, want collapse", res.Summary.AtomicityPct)
	}
	if res.AvgDroppedAge >= 5 {
		t.Fatalf("dropped age %.1f under overload, want young drops", res.AvgDroppedAge)
	}
}

func TestRunAdaptiveProtectsReliability(t *testing.T) {
	base := smallConfig()
	base.OfferedRate = 120

	lp, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ad := base
	ad.Adaptive = true
	adRes, err := Run(ad)
	if err != nil {
		t.Fatal(err)
	}
	// The mechanism throttles input below offered...
	if adRes.InputRate >= 0.8*base.OfferedRate {
		t.Fatalf("adaptive input %.2f did not throttle below offered %v", adRes.InputRate, base.OfferedRate)
	}
	// ...and reliability is far better than the baseline's.
	if adRes.Summary.AtomicityPct < lp.Summary.AtomicityPct+30 {
		t.Fatalf("adaptive atomicity %.1f%% vs baseline %.1f%%: no clear win",
			adRes.Summary.AtomicityPct, lp.Summary.AtomicityPct)
	}
	if adRes.Summary.MeanReceiversPct < 92 {
		t.Fatalf("adaptive mean receivers %.1f%%", adRes.Summary.MeanReceiversPct)
	}
	// Input ≈ output for the adaptive run (Fig. 7's no-loss claim).
	if adRes.OutputRate < 0.9*adRes.InputRate {
		t.Fatalf("adaptive output %.2f ≪ input %.2f", adRes.OutputRate, adRes.InputRate)
	}
	if adRes.AllowedRate <= 0 {
		t.Fatal("allowed rate not measured")
	}
	if adRes.MinBuffFinal != base.Buffer {
		t.Fatalf("minBuff converged to %d, want %d", adRes.MinBuffFinal, base.Buffer)
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	cfg := smallConfig()
	cfg.OfferedRate = 120 // overload: per-message outcomes vary with the seed
	cfg.Duration = 60 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary || a.InputRate != b.InputRate || a.AvgDroppedAge != b.AvgDroppedAge {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
	c := cfg
	c.Seed = 999
	d, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == d.Summary {
		t.Fatal("different seeds produced identical summaries (suspicious)")
	}
}

func TestRunWithLossStillDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Loss = 0.1
	cfg.Topology = sim.NewTwoTierTopology(1,
		sim.LatencyClass{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond}, sim.LatencyClass{})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Gossip's redundancy shrugs off 10% iid loss at low load.
	if res.Summary.MeanReceiversPct < 95 {
		t.Fatalf("mean receivers %.1f%% with 10%% loss", res.Summary.MeanReceiversPct)
	}
}

func TestRunResizeScheduleApplies(t *testing.T) {
	cfg := smallConfig()
	cfg.Adaptive = true
	cfg.Resizes = []workload.Resize{
		{At: 60 * time.Second, Nodes: []int{0, 1}, Capacity: 8},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinBuffFinal != 8 {
		t.Fatalf("minBuff final %d, want the resized 8", res.MinBuffFinal)
	}
}

func TestRunSeedsAverages(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 60 * time.Second
	res, err := RunSeeds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanReceiversPct <= 0 || res.InputRate <= 0 {
		t.Fatalf("averaged result empty: %+v", res)
	}
	if _, err := RunSeeds(Config{}, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestFoldSeedsPoolsDroppedAge: the dropped age is a mean over drops,
// so a seed without capacity drops does not pull it toward 0, and one
// seed folds to its own value.
func TestFoldSeedsPoolsDroppedAge(t *testing.T) {
	got := foldSeeds([]RunResult{{AvgDroppedAge: 6, DroppedEvents: 10}, {}})
	if got.AvgDroppedAge != 6 || got.DroppedEvents != 10 {
		t.Fatalf("age %v over %d drops, want 6 over 10", got.AvgDroppedAge, got.DroppedEvents)
	}
	one := RunResult{AvgDroppedAge: 1.0 / 3, DroppedEvents: 7}
	if got := foldSeeds([]RunResult{one}); got.AvgDroppedAge != one.AvgDroppedAge || got.DroppedEvents != 7 {
		t.Fatalf("one seed folds to age %v over %d drops, want its own %v over 7", got.AvgDroppedAge, got.DroppedEvents, one.AvgDroppedAge)
	}
}

// TestFoldSeedsPoolsFailureStats: the failure-detector counters of a
// seed sweep are summed, not averaged, so a revival or probe ratio read
// from the folded result is a pooled estimate over every seed.
func TestFoldSeedsPoolsFailureStats(t *testing.T) {
	got := foldSeeds([]RunResult{
		{Failure: failure.Stats{ProbesSent: 4, AcksReceived: 3, Revivals: 2}},
		{Failure: failure.Stats{ProbesSent: 6, AcksReceived: 6, Revivals: 7}},
		{Failure: failure.Stats{Revivals: 1, Confirms: 1}},
	})
	want := failure.Stats{ProbesSent: 10, AcksReceived: 9, Revivals: 10, Confirms: 1}
	if got.Failure != want {
		t.Fatalf("pooled failure counters %+v, want %+v", got.Failure, want)
	}
}

// TestAdaptiveAdmitRatioCBRVsPoisson pins finding 2(a) at the paper's
// setting: the adaptive controller admits most of a constant-rate load
// (asserted), and the logged Poisson rows at the same mean show how much
// less it admits of bursty arrivals, and at what allowed rate. Admit
// ratio is InputRate / OfferedRate.
func TestAdaptiveAdmitRatioCBRVsPoisson(t *testing.T) {
	if race.Enabled {
		t.Skip("four single-goroutine paper-length runs: the race detector only multiplies their cost")
	}
	for _, offered := range []float64{10, 20} {
		for _, poisson := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Adaptive = true
			cfg.OfferedRate = offered
			cfg.Poisson = poisson
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			admit := res.InputRate / res.OfferedRate
			t.Logf("offered %v msg/s, Poisson %v: admits %.3f at allowed rate %.2f", offered, poisson, admit, res.AllowedRate)
			if !poisson && admit < 0.85 {
				t.Errorf("offered %v msg/s: CBR admit ratio %.3f, want >= 0.85", offered, admit)
			}
		}
	}
}
