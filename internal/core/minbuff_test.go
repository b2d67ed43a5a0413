package core

import (
	"math"
	"testing"
)

// minEst drives the estimator at κ = 1 with the paper's scalar
// header: each minBuff is one entry from a peer.
type minEst struct{ *MinBuffEstimator }

func (e minEst) Observe(period uint64, minBuff int) {
	e.MinBuffEstimator.Observe(period, []MinEntry{{Node: "peer", Cap: minBuff}})
}

func (e minEst) Header() (uint64, int) {
	s, entries := e.MinBuffEstimator.Header()
	return s, entries[0].Cap
}

func newEst(t *testing.T, window, localCap int) minEst {
	t.Helper()
	e, err := NewMinBuffEstimator("self", 1, 0, window, localCap)
	if err != nil {
		t.Fatalf("NewMinBuffEstimator: %v", err)
	}
	return minEst{e}
}

func TestMinBuffValidation(t *testing.T) {
	cases := []struct{ w, c int }{
		{0, 100}, {-1, 100}, {2, 0}, {2, -5},
	}
	for _, tc := range cases {
		if _, err := NewMinBuffEstimator("self", 1, 0, tc.w, tc.c); err == nil {
			t.Errorf("NewMinBuffEstimator(%d,%d): want error", tc.w, tc.c)
		}
	}
}

func TestMinBuffInitialEstimateIsLocalCapacity(t *testing.T) {
	e := newEst(t, 3, 90)
	if got := e.Estimate(); got != 90 {
		t.Fatalf("estimate = %d, want 90", got)
	}
	s, mb := e.Header()
	if s != 0 || mb != 90 {
		t.Fatalf("header = (%d, %d), want (0, 90)", s, mb)
	}
}

func TestMinBuffObserveFoldsMinimum(t *testing.T) {
	e := newEst(t, 2, 90)
	e.Observe(0, 45)
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d, want 45", got)
	}
	// Larger values do not raise the estimate.
	e.Observe(0, 70)
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d after larger observation, want 45", got)
	}
	// Non-positive headers are rejected defensively.
	e.Observe(0, 0)
	e.Observe(0, -3)
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d after corrupt headers, want 45", got)
	}
}

func TestMinBuffPeriodRotationExpiresOldMinima(t *testing.T) {
	e := newEst(t, 2, 90) // W=2
	e.Observe(0, 45)
	// Advance one period: the old minimum is still inside the window.
	for range samplePeriodRounds {
		e.OnRound()
	}
	if e.Period() != 1 {
		t.Fatalf("period = %d, want 1", e.Period())
	}
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d, want 45 (still in window)", got)
	}
	// Advance a second period: the 45 ages out, estimate returns to 90.
	for range samplePeriodRounds {
		e.OnRound()
	}
	if got := e.Estimate(); got != 90 {
		t.Fatalf("estimate = %d, want 90 after the constrained node's value aged out", got)
	}
}

func TestMinBuffOnRoundSignalsPeriodStart(t *testing.T) {
	e := newEst(t, 2, 50)
	for i := 1; i < samplePeriodRounds; i++ {
		if e.OnRound() {
			t.Fatalf("period advanced after %d of %d rounds", i, samplePeriodRounds)
		}
	}
	if !e.OnRound() {
		t.Fatalf("period did not advance after %d rounds", samplePeriodRounds)
	}
	if e.Advances() != 1 {
		t.Fatalf("advances = %d", e.Advances())
	}
}

func TestMinBuffClockSyncJumpForward(t *testing.T) {
	e := newEst(t, 3, 90)
	e.Observe(0, 40)
	// A header from period 2 fast-forwards the local clock.
	e.Observe(2, 60)
	if e.Period() != 2 {
		t.Fatalf("period = %d, want 2", e.Period())
	}
	// Window covers periods 0..2: min(40, 90, 60) = 40.
	if got := e.Estimate(); got != 40 {
		t.Fatalf("estimate = %d, want 40", got)
	}
	// A jump beyond the whole window resets everything.
	e.Observe(10, 70)
	if e.Period() != 10 {
		t.Fatalf("period = %d, want 10", e.Period())
	}
	if got := e.Estimate(); got != 70 {
		t.Fatalf("estimate = %d, want 70 (fresh window)", got)
	}
}

func TestMinBuffStaleHeadersWithinWindowStillCount(t *testing.T) {
	e := newEst(t, 3, 90)
	e.Observe(5, 80) // jump to period 5
	e.Observe(4, 30) // stale but within window (periods 3..5)
	if got := e.Estimate(); got != 30 {
		t.Fatalf("estimate = %d, want 30", got)
	}
	e.Observe(1, 5) // beyond the window: ignored
	if got := e.Estimate(); got != 30 {
		t.Fatalf("estimate = %d, want 30 (too-old header ignored)", got)
	}
}

func TestMinBuffSetLocalCapacity(t *testing.T) {
	e := newEst(t, 2, 90)
	// Shrink: takes effect immediately in the current period.
	if err := e.SetLocalCapacity(45); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d, want 45", got)
	}
	// Growth: only affects future periods.
	if err := e.SetLocalCapacity(120); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate(); got != 45 {
		t.Fatalf("estimate = %d right after growth, want 45", got)
	}
	for range 2 * samplePeriodRounds { // two full periods
		e.OnRound()
	}
	if got := e.Estimate(); got != 120 {
		t.Fatalf("estimate = %d after window rotation, want 120", got)
	}
	if err := e.SetLocalCapacity(0); err == nil {
		t.Fatal("SetLocalCapacity(0): want error")
	}
}

// TestMinBuffGroupConvergence simulates header exchange among nodes and
// checks everyone converges to the global minimum within one sample
// period of gossip, as §3.4's choice of Ts intends.
func TestMinBuffGroupConvergence(t *testing.T) {
	caps := []int{120, 90, 45, 150, 80}
	ests := make([]minEst, len(caps))
	for i, c := range caps {
		ests[i] = newEst(t, 2, c)
	}
	// Ring exchange: in each round every node sends its header to the
	// next two nodes. Diameter considerations: 3 rounds suffice for 5
	// nodes with fanout 2.
	for round := 0; round < 4; round++ {
		type hdr struct {
			s  uint64
			mb int
		}
		hdrs := make([]hdr, len(ests))
		for i, e := range ests {
			s, mb := e.Header()
			hdrs[i] = hdr{s, mb}
		}
		for i, e := range ests {
			e.OnRound()
			_ = e
			for d := 1; d <= 2; d++ {
				j := (i + d) % len(ests)
				ests[j].Observe(hdrs[i].s, hdrs[i].mb)
			}
		}
	}
	for i, e := range ests {
		if got := e.Estimate(); got != 45 {
			t.Fatalf("node %d estimate = %d, want global min 45", i, got)
		}
	}
}

// TestMinBuffHostilePeriod: a header from a period at or above 2⁶³ —
// one datagram from any peer; no honest member counts that far — is
// dropped. The member keeps its period, and the next honest header
// still lowers the estimate.
func TestMinBuffHostilePeriod(t *testing.T) {
	for _, window := range []int{2, 3} {
		for _, period := range []uint64{1 << 63, math.MaxUint64} {
			e := newEst(t, window, 30)
			e.Observe(1, 25)
			e.Observe(period, 4)
			if s, mb := e.Header(); s != 1 || mb != 25 {
				t.Fatalf("W=%d: header = (%d, %d) after a header from period %d, want (1, 25)", window, s, mb, period)
			}
			if got := e.Estimate(); got != 25 {
				t.Fatalf("W=%d, s=%d: estimate = %d, want 25", window, period, got)
			}
			e.Observe(1, 20)
			if got := e.Estimate(); got != 20 {
				t.Fatalf("W=%d, s=%d: estimate = %d after an honest header of 20, want 20", window, period, got)
			}
		}
	}
}
