package experiments

import (
	"testing"
	"time"

	"adaptivegossip/internal/workload"
)

// TestRunSurvivesCrashes injects crashes of 10% of the group mid-run
// and checks the epidemic still reaches essentially all survivors —
// the resilience property gossip is chosen for (paper §2).
func TestRunSurvivesCrashes(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup = 60 * time.Second
	crashed := []int{18, 19} // non-senders-only is irrelevant; they also publish
	cfg.Crashes = []workload.Crash{{At: 30 * time.Second, Nodes: crashed}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 of 20 members are gone, so perfect coverage is 90%. Survivors
	// should still see nearly everything: ≥88% mean coverage overall.
	if res.Summary.MeanReceiversPct < 88 {
		t.Fatalf("mean receivers %.1f%% with 10%% crashed, want ≥88%%", res.Summary.MeanReceiversPct)
	}
	// And nothing should exceed the survivor ceiling.
	if res.Summary.MeanReceiversPct > 90.01 {
		t.Fatalf("mean receivers %.1f%% exceeds survivor ceiling", res.Summary.MeanReceiversPct)
	}
}

// TestRunAdaptiveSurvivesCrashOfConstrainedNode: when the most
// constrained node crashes, its stale minimum ages out of the window
// and the allowance recovers.
func TestRunAdaptiveSurvivesCrashOfConstrainedNode(t *testing.T) {
	cfg := smallConfig()
	cfg.Adaptive = true
	cfg.OfferedRate = 20
	cfg.Warmup = 0
	cfg.Duration = 200 * time.Second
	// Node 19 starts tiny, throttling everyone; it crashes at t=100s.
	cfg.Resizes = []workload.Resize{{At: 0, Nodes: []int{19}, Capacity: 5}}
	cfg.Crashes = []workload.Crash{{At: 100 * time.Second, Nodes: []int{19}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bucket := res.Config.Period
	before, okB := meanAllowedBetween(res, 60*time.Second, 100*time.Second, bucket)
	after, okA := meanAllowedBetween(res, 150*time.Second, 200*time.Second, bucket)
	if !okB || !okA {
		t.Fatalf("allowed series incomplete: %v %v", okB, okA)
	}
	if after <= before*1.3 {
		t.Fatalf("allowance did not recover after the constrained node crashed: %.2f → %.2f", before, after)
	}
}

func meanAllowedBetween(res RunResult, from, to, bucket time.Duration) (float64, bool) {
	var sum float64
	var n int
	for i, p := range res.AllowedSeries {
		off := time.Duration(i) * bucket
		if off < from || off >= to || p.N == 0 {
			continue
		}
		sum += p.Mean
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
