package experiments

import (
	"testing"
	"time"

	"adaptivegossip/internal/workload"
)

// TestRunJoinScheduleValidation rejects out-of-range join indexes.
func TestRunJoinScheduleValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Joins = []workload.Join{{At: 0, Nodes: []int{99}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad join index accepted")
	}
	cfg.Joins = []workload.Join{{At: -time.Second, Nodes: []int{0}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative join offset accepted")
	}
}

// TestRunLateJoinersIntegrate: nodes joining mid-run start receiving
// broadcasts; messages born after the join reach the full group.
func TestRunLateJoinersIntegrate(t *testing.T) {
	cfg := smallConfig()
	cfg.Warmup = 100 * time.Second // measure only after the join settles
	cfg.Duration = 100 * time.Second
	cfg.Joins = []workload.Join{{At: 40 * time.Second, Nodes: []int{17, 18, 19}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the join, coverage includes the newcomers: near-complete.
	if res.Summary.MeanReceiversPct < 97 {
		t.Fatalf("mean receivers %.1f%% after join, want ≥97%%", res.Summary.MeanReceiversPct)
	}
	if res.Summary.AtomicityPct < 85 {
		t.Fatalf("atomicity %.1f%% after join", res.Summary.AtomicityPct)
	}
}

// TestRunJoinOfConstrainedNodeThrottles is the inverse of the crash
// recovery test: a tiny-buffered node joining mid-run must pull the
// group's allowance down once its capacity circulates in the headers.
func TestRunJoinOfConstrainedNodeThrottles(t *testing.T) {
	cfg := smallConfig()
	cfg.Adaptive = true
	cfg.OfferedRate = 20
	cfg.Warmup = 0
	cfg.Duration = 240 * time.Second
	// Node 19 has a tiny buffer and joins at t=120s.
	cfg.Resizes = []workload.Resize{{At: 0, Nodes: []int{19}, Capacity: 5}}
	cfg.Joins = []workload.Join{{At: 120 * time.Second, Nodes: []int{19}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bucket := res.Config.Period
	before, okB := meanAllowedBetween(res, 60*time.Second, 120*time.Second, bucket)
	after, okA := meanAllowedBetween(res, 180*time.Second, 240*time.Second, bucket)
	if !okB || !okA {
		t.Fatalf("allowed series incomplete: %v %v", okB, okA)
	}
	if after >= before*0.7 {
		t.Fatalf("allowance did not adapt to the constrained joiner: %.2f → %.2f", before, after)
	}
	if res.MinBuffFinal != 5 {
		t.Fatalf("minBuff final %d, want the joiner's 5", res.MinBuffFinal)
	}
}
