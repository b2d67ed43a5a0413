package core

import (
	"fmt"

	"adaptivegossip/internal/gossip"
)

// CongestionEstimator is the local congestion estimation of paper
// Figure 5(b): an exponential moving average (avgAge) of the age of the
// events that would have been discarded by a buffer of the
// group-minimum size, maintained with zero protocol overhead by
// observing the local buffer after each gossip reception.
//
// The lost set remembers events already accounted for so each
// contributes at most once; entries are forgotten when the event leaves
// the real buffer.
//
// CongestionEstimator is not safe for concurrent use.
type CongestionEstimator struct {
	alpha   float64
	avgAge  float64
	lost    map[gossip.EventID]struct{}
	samples uint64
}

// NewCongestionEstimator creates an estimator with EMA weight alpha,
// starting from initial (conventionally the target age, so the
// controller is neutral until real samples arrive).
func NewCongestionEstimator(alpha, initial float64) (*CongestionEstimator, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("core: alpha must be in [0,1), got %v", alpha)
	}
	if initial < 0 {
		return nil, fmt.Errorf("core: initial avgAge must be non-negative, got %v", initial)
	}
	return &CongestionEstimator{
		alpha:  alpha,
		avgAge: initial,
		lost:   make(map[gossip.EventID]struct{}),
	}, nil
}

// AvgAge returns the current congestion estimate.
func (c *CongestionEstimator) AvgAge() float64 { return c.avgAge }

// Samples counts how many events have fed the estimate.
func (c *CongestionEstimator) Samples() uint64 { return c.samples }

// LostLen reports the size of the lost set (events counted but still in
// the real buffer).
func (c *CongestionEstimator) LostLen() int { return len(c.lost) }

// Counted reports whether the event already contributed to avgAge. It
// is the predicate handed to Buffer.AppendOldestUncounted.
func (c *CongestionEstimator) Counted(id gossip.EventID) bool {
	_, ok := c.lost[id]
	return ok
}

// ObserveOverflow feeds the events that overflow the virtual
// minBuff-sized buffer into the moving average and marks them counted.
// It only reads events; the caller keeps the slice.
func (c *CongestionEstimator) ObserveOverflow(events []gossip.Event) {
	for _, ev := range events {
		c.avgAge = c.alpha*c.avgAge + (1-c.alpha)*float64(ev.Age)
		c.samples++
		c.lost[ev.ID] = struct{}{}
	}
}

// ObserveDrop feeds a really dropped event into the moving average
// without tracking it in the lost set (it has already left the buffer).
// Real capacity drops happen at the local capacity, which is at least
// minBuff, so a minBuff-sized buffer would certainly have dropped the
// event too: together with ObserveOverflow this reproduces the paper's
// pre-garbage-collection accounting (Figure 5(b)) on top of a buffer
// that evicts per insertion.
func (c *CongestionEstimator) ObserveDrop(ev gossip.Event) {
	c.avgAge = c.alpha*c.avgAge + (1-c.alpha)*float64(ev.Age)
	c.samples++
}

// Forget drops an event from the lost set; call it when the event
// leaves the real buffer for any reason.
func (c *CongestionEstimator) Forget(id gossip.EventID) {
	delete(c.lost, id)
}

// Drift moves avgAge one EMA step toward the given value. Used for
// optimistic recovery in rounds that produce no overflow samples (see
// Adaptor.onRoundEnd).
func (c *CongestionEstimator) Drift(toward float64) {
	c.avgAge = c.alpha*c.avgAge + (1-c.alpha)*toward
}
