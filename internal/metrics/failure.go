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
	// Totals across the group.
	ProbesSent       uint64
	AcksReceived     uint64
	AcksSent         uint64
	PingReqsSent     uint64
	PingReqsReceived uint64
	ProbesRelayed    uint64
	AcksRelayed      uint64
	Suspects         uint64
	Confirms         uint64
	Refutations      uint64
	Revivals         uint64
	UpdatesSent      uint64
	UpdatesReceived  uint64
	UpdatesIgnored   uint64
	// MinRevivals/MaxRevivals bound the per-node revival counts — a
	// skew diagnostic (false positives should be rare everywhere, not
	// concentrated on one unlucky observer).
	MinRevivals uint64
	MaxRevivals uint64
}

// Add folds one node's counters into the summary.
func (s *FailureSummary) Add(st failure.Stats) {
	if s.Nodes == 0 || st.Revivals < s.MinRevivals {
		s.MinRevivals = st.Revivals
	}
	if st.Revivals > s.MaxRevivals {
		s.MaxRevivals = st.Revivals
	}
	s.Nodes++
	s.ProbesSent += st.ProbesSent
	s.AcksReceived += st.AcksReceived
	s.AcksSent += st.AcksSent
	s.PingReqsSent += st.PingReqsSent
	s.PingReqsReceived += st.PingReqsReceived
	s.ProbesRelayed += st.ProbesRelayed
	s.AcksRelayed += st.AcksRelayed
	s.Suspects += st.Suspects
	s.Confirms += st.Confirms
	s.Refutations += st.Refutations
	s.Revivals += st.Revivals
	s.UpdatesSent += st.UpdatesSent
	s.UpdatesReceived += st.UpdatesReceived
	s.UpdatesIgnored += st.UpdatesIgnored
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
