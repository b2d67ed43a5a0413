package experiments

import (
	"testing"

	"adaptivegossip/internal/race"
)

// TestConvergenceLargeCluster: at n>=1000 nodes the piggybacked digests
// must reach full cluster coverage, and coverage must be monotonically
// non-decreasing.
func TestConvergenceLargeCluster(t *testing.T) {
	n := 1000
	if testing.Short() || race.Enabled {
		n = 200
	}
	res, err := RunConvergence(n, 4, 64, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToFull == 0 {
		last := res.Trace[len(res.Trace)-1]
		t.Fatalf("no full coverage after %d rounds: min=%.3f mean=%.3f full=%d",
			len(res.Trace), last.MinCoverage, last.MeanCoverage, last.FullNodes)
	}
	t.Logf("n=%d fanout=4 digests/msg=64: full coverage in %d rounds", n, res.RoundsToFull)
	prev := 0.0
	for _, r := range res.Trace {
		if r.MeanCoverage+1e-9 < prev {
			t.Fatalf("mean coverage regressed at round %d: %.4f < %.4f", r.Round, r.MeanCoverage, prev)
		}
		prev = r.MeanCoverage
	}
}

func TestConvergenceSmall(t *testing.T) {
	res, err := RunConvergence(8, 3, 4, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsToFull == 0 {
		t.Fatal("8-node cluster did not converge in 50 rounds")
	}
	if res.Trace[len(res.Trace)-1].FullNodes != 8 {
		t.Fatalf("last round not full: %+v", res.Trace[len(res.Trace)-1])
	}
}

func TestConvergenceRejectsTinyCluster(t *testing.T) {
	if _, err := RunConvergence(1, 2, 4, 10, 1); err == nil {
		t.Fatal("1-node cluster accepted")
	}
}
