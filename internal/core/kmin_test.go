package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"adaptivegossip/internal/gossip"
)

func newKMin(t *testing.T, rank, floor int) *MinBuffEstimator {
	t.Helper()
	e, err := NewMinBuffEstimator("self", rank, floor, 2, 100)
	if err != nil {
		t.Fatalf("NewMinBuffEstimator: %v", err)
	}
	return e
}

func TestKMinValidation(t *testing.T) {
	cases := []struct{ rank, floor, w, c int }{
		{0, 0, 2, 100},
		{1, -1, 2, 100},
		{1, 0, 0, 100},
		{1, 0, 2, 0},
	}
	for _, tc := range cases {
		if _, err := NewMinBuffEstimator("s", tc.rank, tc.floor, tc.w, tc.c); err == nil {
			t.Errorf("NewMinBuffEstimator(%+v): want error", tc)
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
	e := newKMin(t, 1, 0)
	e.Observe(0, []MinEntry{{Node: "tiny", Cap: 10}})
	for range samplePeriodRounds {
		e.OnRound()
	}
	if got := e.Estimate(); got != 10 {
		t.Fatalf("estimate = %d, want 10 within window", got)
	}
	for range samplePeriodRounds {
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
	if len(slot) > 2 { // κ
		t.Fatalf("period state grew to %d entries, want bounded", len(slot))
	}
	if !slices.ContainsFunc(slot, func(m MinEntry) bool { return m.Node == "self" }) {
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
// estimator, at κ = 1 and κ = 3. A header with no positive capacity is
// dropped whole as well: it does not move the period.
func TestKMinHostilePeriod(t *testing.T) {
	for _, rank := range []int{1, 3} {
		for _, window := range []int{2, 3} {
			for _, period := range []uint64{1 << 63, math.MaxUint64} {
				e, err := NewMinBuffEstimator("s", rank, 0, window, 30)
				if err != nil {
					t.Fatal(err)
				}
				e.Observe(5, []MinEntry{{Node: "x", Cap: 0}})
				if got := e.Period(); got != 0 {
					t.Fatalf("κ=%d, W=%d: period %d after a header of capacity 0, want 0", rank, window, got)
				}
				e.Observe(1, []MinEntry{{Node: "a", Cap: 25}, {Node: "b", Cap: 26}, {Node: "c", Cap: 27}})
				before := e.Estimate()
				e.Observe(period, []MinEntry{{Node: "m", Cap: 4}, {Node: "n", Cap: 4}, {Node: "o", Cap: 4}})
				if s, _ := e.Header(); s != 1 {
					t.Fatalf("κ=%d, W=%d: period %d after a header from period %d, want 1", rank, window, s, period)
				}
				if got := e.Estimate(); got != before {
					t.Fatalf("κ=%d, W=%d, s=%d: estimate = %d, want %d", rank, window, period, got, before)
				}
				e.Observe(1, []MinEntry{{Node: "d", Cap: 10}, {Node: "f", Cap: 11}, {Node: "g", Cap: 12}})
				if got, want := e.Estimate(), 9+rank; got != want {
					t.Fatalf("κ=%d, W=%d, s=%d: estimate = %d after an honest header, want %d", rank, window, period, got, want)
				}
			}
		}
	}
}
