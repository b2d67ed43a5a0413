package metrics

import (
	"testing"

	"adaptivegossip/internal/failure"
)

func TestFailureSummaryAdd(t *testing.T) {
	var s FailureSummary
	s.Add(failure.Stats{ProbesSent: 10, AcksReceived: 9, Suspects: 2, Confirms: 1, Revivals: 1})
	s.Add(failure.Stats{ProbesSent: 5, AcksReceived: 5, Revivals: 3})
	if s.Nodes != 2 {
		t.Fatalf("Nodes = %d, want 2", s.Nodes)
	}
	if s.ProbesSent != 15 || s.AcksReceived != 14 || s.Suspects != 2 || s.Confirms != 1 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if s.MinRevivals != 1 || s.MaxRevivals != 3 {
		t.Fatalf("revival spread [%d,%d], want [1,3]", s.MinRevivals, s.MaxRevivals)
	}
}

func TestFailureSummaryMerge(t *testing.T) {
	var a, b FailureSummary
	a.Add(failure.Stats{ProbesSent: 4, Revivals: 2})
	b.Add(failure.Stats{ProbesSent: 6, Revivals: 7})
	b.Add(failure.Stats{Revivals: 1})
	a.Merge(b)
	if a.Nodes != 3 || a.ProbesSent != 10 || a.Revivals != 10 {
		t.Fatalf("merge totals wrong: %+v", a)
	}
	if a.MinRevivals != 1 || a.MaxRevivals != 7 {
		t.Fatalf("merged spread [%d,%d], want [1,7]", a.MinRevivals, a.MaxRevivals)
	}
}
