package metrics

import (
	"adaptivegossip/internal/failure"
)

// FailureSummary aggregates the failure detector's per-node counters
// (failure.Stats) across a group: totals plus the spread of
// locally-observed false positives (revivals), the reading the churn
// experiments report next to delivery ratio and view accuracy.
type FailureSummary struct {
	// Nodes is the number of aggregated nodes.
	Nodes int
	// Stats holds the totals across the group.
	failure.Stats
	// MinRevivals/MaxRevivals bound the per-node revival counts — a
	// skew diagnostic (false positives should be rare everywhere, not
	// concentrated on one unlucky observer).
	MinRevivals uint64
	MaxRevivals uint64
}

// Add folds one node's counters into the summary.
func (s *FailureSummary) Add(st failure.Stats) {
	s.Merge(FailureSummary{Nodes: 1, Stats: st, MinRevivals: st.Revivals, MaxRevivals: st.Revivals})
}

// Merge folds another summary into s — e.g. pooling the runs of a seed
// sweep. Totals add, the revival spread widens, and Nodes accumulates;
// ratios derived from a pooled summary are pooled estimates.
func (s *FailureSummary) Merge(o FailureSummary) {
	if o.Nodes > 0 {
		if s.Nodes == 0 || o.MinRevivals < s.MinRevivals {
			s.MinRevivals = o.MinRevivals
		}
		if o.MaxRevivals > s.MaxRevivals {
			s.MaxRevivals = o.MaxRevivals
		}
	}
	s.Nodes += o.Nodes
	s.ProbesSent += o.ProbesSent
	s.AcksReceived += o.AcksReceived
	s.AcksSent += o.AcksSent
	s.PingReqsSent += o.PingReqsSent
	s.PingReqsReceived += o.PingReqsReceived
	s.ProbesRelayed += o.ProbesRelayed
	s.AcksRelayed += o.AcksRelayed
	s.Suspects += o.Suspects
	s.Confirms += o.Confirms
	s.Refutations += o.Refutations
	s.Revivals += o.Revivals
	s.UpdatesSent += o.UpdatesSent
	s.UpdatesReceived += o.UpdatesReceived
	s.UpdatesIgnored += o.UpdatesIgnored
}
