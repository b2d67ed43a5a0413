package metrics

import (
	"adaptivegossip/internal/recovery"
)

// RecoverySummary aggregates the anti-entropy subsystem's per-node
// counters (recovery.Stats) across a group: totals plus the spread of
// recovered-event counts, the reading the loss experiments report next
// to delivery ratio.
type RecoverySummary struct {
	// Nodes is the number of aggregated nodes.
	Nodes int
	// Stats holds the totals across the group.
	recovery.Stats
	// MinRecovered/MaxRecovered bound the per-node recovered counts —
	// a skew diagnostic (uniform loss should repair uniformly).
	MinRecovered uint64
	MaxRecovered uint64
}

// Add folds one node's counters into the summary.
func (s *RecoverySummary) Add(st recovery.Stats) {
	s.Merge(RecoverySummary{Nodes: 1, Stats: st, MinRecovered: st.EventsRecovered, MaxRecovered: st.EventsRecovered})
}

// Merge folds another summary into s — e.g. pooling the runs of a
// seed sweep. Totals add, the recovered spread widens, and Nodes
// accumulates; ratios derived from a pooled summary are pooled
// estimates.
func (s *RecoverySummary) Merge(o RecoverySummary) {
	if o.Nodes > 0 {
		if s.Nodes == 0 || o.MinRecovered < s.MinRecovered {
			s.MinRecovered = o.MinRecovered
		}
		if o.MaxRecovered > s.MaxRecovered {
			s.MaxRecovered = o.MaxRecovered
		}
	}
	s.Nodes += o.Nodes
	s.DigestsSent += o.DigestsSent
	s.DigestsReceived += o.DigestsReceived
	s.RequestsSent += o.RequestsSent
	s.IDsRequested += o.IDsRequested
	s.RequestsReceived += o.RequestsReceived
	s.ResponsesSent += o.ResponsesSent
	s.ResponsesReceived += o.ResponsesReceived
	s.EventsServed += o.EventsServed
	s.EventsUnserved += o.EventsUnserved
	s.EventsRecovered += o.EventsRecovered
	s.MissingGaveUp += o.MissingGaveUp
	s.MissingOverflow += o.MissingOverflow
	s.StoreEvicted += o.StoreEvicted
}

// ServeRatio is the fraction of requested identifiers the group could
// serve from its retransmission stores (1 when nothing was requested).
func (s RecoverySummary) ServeRatio() float64 {
	total := s.EventsServed + s.EventsUnserved
	if total == 0 {
		return 1
	}
	return float64(s.EventsServed) / float64(total)
}
