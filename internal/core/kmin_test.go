package core

import (
	"fmt"
	"math"
	"testing"

	"adaptivegossip/internal/gossip"
)

func newKMin(t *testing.T, rank, floor int) *KMinEstimator {
	t.Helper()
	e, err := NewKMinEstimator("self", rank, floor, 2, 6, 100)
	if err != nil {
		t.Fatalf("NewKMinEstimator: %v", err)
	}
	return e
}

func TestKMinValidation(t *testing.T) {
	cases := []struct{ rank, floor, w, p, c int }{
		{0, 0, 2, 6, 100},
		{1, -1, 2, 6, 100},
		{1, 0, 0, 6, 100},
		{1, 0, 2, 0, 100},
		{1, 0, 2, 6, 0},
	}
	for _, tc := range cases {
		if _, err := NewKMinEstimator("s", tc.rank, tc.floor, tc.w, tc.p, tc.c); err == nil {
			t.Errorf("NewKMinEstimator(%+v): want error", tc)
		}
	}
}

func TestKMinRankTwoIgnoresSingleOutlier(t *testing.T) {
	e := newKMin(t, 2, 0)
	e.Observe(0, []MinEntry{{Node: "tiny", Cap: 5}, {Node: "b", Cap: 80}})
	// κ=2: the single tiny node does not set the estimate; the 2nd
	// smallest (80) does.
	if got := e.Estimate(); got != 80 {
		t.Fatalf("estimate = %d, want 80", got)
	}
	// A second tiny node brings the 2nd smallest down.
	e.Observe(0, []MinEntry{{Node: "tiny2", Cap: 7}})
	if got := e.Estimate(); got != 7 {
		t.Fatalf("estimate = %d, want 7", got)
	}
}

func TestKMinDeduplicatesByNode(t *testing.T) {
	e := newKMin(t, 2, 0)
	// The same constrained node heard via many paths counts once.
	for i := 0; i < 10; i++ {
		e.Observe(0, []MinEntry{{Node: "tiny", Cap: 5}})
	}
	if got := e.Estimate(); got != 100 {
		t.Fatalf("estimate = %d, want self capacity 100 (one tiny node ignored at κ=2)", got)
	}
}

func TestKMinFloorClamps(t *testing.T) {
	e := newKMin(t, 1, 30)
	e.Observe(0, []MinEntry{{Node: "tiny", Cap: 5}})
	if got := e.Estimate(); got != 30 {
		t.Fatalf("estimate = %d, want floor 30", got)
	}
}

func TestKMinHeaderIsSortedAndBounded(t *testing.T) {
	e := newKMin(t, 2, 0)
	e.Observe(0, []MinEntry{
		{Node: "a", Cap: 50}, {Node: "b", Cap: 20}, {Node: "c", Cap: 70},
	})
	_, entries := e.Header()
	if len(entries) != 2 {
		t.Fatalf("header entries = %v, want κ=2", entries)
	}
	if entries[0].Cap != 20 || entries[1].Cap != 50 {
		t.Fatalf("header not sorted ascending: %v", entries)
	}
}

func TestKMinPeriodRotation(t *testing.T) {
	e, err := NewKMinEstimator("self", 1, 0, 2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(0, []MinEntry{{Node: "tiny", Cap: 10}})
	for i := 0; i < 3; i++ {
		e.OnRound()
	}
	if got := e.Estimate(); got != 10 {
		t.Fatalf("estimate = %d, want 10 within window", got)
	}
	for i := 0; i < 3; i++ {
		e.OnRound()
	}
	if got := e.Estimate(); got != 100 {
		t.Fatalf("estimate = %d, want 100 after rotation", got)
	}
	if e.Period() != 2 {
		t.Fatalf("period = %d", e.Period())
	}
}

func TestKMinClockSync(t *testing.T) {
	e := newKMin(t, 1, 0)
	e.Observe(5, []MinEntry{{Node: "x", Cap: 40}})
	if e.Period() != 5 {
		t.Fatalf("period = %d, want 5", e.Period())
	}
	if got := e.Estimate(); got != 40 {
		t.Fatalf("estimate = %d", got)
	}
	// Too-old header ignored.
	e.Observe(1, []MinEntry{{Node: "y", Cap: 1}})
	if got := e.Estimate(); got != 40 {
		t.Fatalf("estimate = %d after stale header", got)
	}
}

func TestKMinTrimBoundsState(t *testing.T) {
	e := newKMin(t, 2, 0) // keep = 8
	var entries []MinEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, MinEntry{Node: gossip.NodeID(fmt.Sprintf("n%d", i)), Cap: 1000 + i})
	}
	e.Observe(0, entries)
	slot := e.window[0]
	if len(slot) > 9 { // keep + self
		t.Fatalf("period state grew to %d entries, want bounded", len(slot))
	}
	if _, ok := slot["self"]; !ok {
		t.Fatal("self entry trimmed away")
	}
}

func TestKMinSetLocalCapacity(t *testing.T) {
	e := newKMin(t, 1, 0)
	if err := e.SetLocalCapacity(20); err != nil {
		t.Fatal(err)
	}
	if got := e.Estimate(); got != 20 {
		t.Fatalf("estimate = %d, want 20", got)
	}
	if err := e.SetLocalCapacity(0); err == nil {
		t.Fatal("SetLocalCapacity(0): want error")
	}
}

// TestKMinHostilePeriod is TestMinBuffHostilePeriod for the κ-smallest
// estimator, whose window is indexed by period the same way.
func TestKMinHostilePeriod(t *testing.T) {
	for _, window := range []int{2, 3} {
		for _, period := range []uint64{1 << 63, math.MaxUint64} {
			e, err := NewKMinEstimator("s", 3, 0, window, 6, 30)
			if err != nil {
				t.Fatal(err)
			}
			e.Observe(period, []MinEntry{{Node: "a", Cap: 20}, {Node: "b", Cap: 25}, {Node: "c", Cap: 27}})
			if s, entries := e.Header(); s != period || len(entries) != 3 || entries[0].Cap != 20 {
				t.Fatalf("W=%d, s=%d: header = (%d, %v), want period %d and the 3 smallest", window, period, s, entries, period)
			}
			if got := e.Estimate(); got != 27 {
				t.Fatalf("W=%d, s=%d: estimate = %d, want 27", window, period, got)
			}
			if err := e.SetLocalCapacity(10); err != nil {
				t.Fatal(err)
			}
			if got := e.Estimate(); got != 25 {
				t.Fatalf("W=%d, s=%d: estimate = %d after the shrink, want 25", window, period, got)
			}
			for range 6 {
				e.OnRound()
			}
			if s, entries := e.Header(); s != period+1 || len(entries) != 1 || entries[0].Cap != 10 {
				t.Fatalf("W=%d, s=%d: header after a period = (%d, %v), want (%d, [s:10])", window, period, s, entries, period+1)
			}
		}
	}
}
