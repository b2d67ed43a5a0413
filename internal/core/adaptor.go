package core

import (
	"fmt"

	"adaptivegossip/internal/gossip"
)

// Adaptor packages the three Figure 5 mechanisms as a gossip.Extension:
// OnTick stamps the adaptation header onto outgoing gossip, OnReceive
// folds received headers into the minBuff estimate and feeds the
// congestion estimator from the post-receive buffer state, and
// OnEvicted maintains the estimator's lost set. The rate decision
// itself runs from AdaptiveNode.Tick, which owns time.
//
// Adaptor is not safe for concurrent use.
type Adaptor struct {
	min  *MinBuffEstimator
	cong *CongestionEstimator

	samplesAtTick uint64 // congestion samples seen as of the last tick

	// overflow is reused scratch for the Figure 5(b) scan, which runs on
	// every receive while the buffer exceeds the minBuff estimate. Empty
	// between receives, so it pins no payload of a departed event.
	overflow []gossip.Event
}

// NewAdaptor builds the estimator stack for a node with the given id
// and local buffer capacity.
func NewAdaptor(id gossip.NodeID, params Params, localCap int) (*Adaptor, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid params: %w", err)
	}
	cong, err := NewCongestionEstimator(params.Alpha, params.TargetAge)
	if err != nil {
		return nil, err
	}
	est, err := NewMinBuffEstimator(id, params.MinBuffRank, params.MinBuffFloor,
		params.Window, params.SamplePeriodRounds, localCap)
	if err != nil {
		return nil, err
	}
	return &Adaptor{min: est, cong: cong}, nil
}

// MinBuff returns the working estimate of the relevant smallest buffer
// in the group.
func (a *Adaptor) MinBuff() int { return a.min.Estimate() }

// AvgAge returns the congestion estimate.
func (a *Adaptor) AvgAge() float64 { return a.cong.AvgAge() }

// SamplePeriod returns the current period s.
func (a *Adaptor) SamplePeriod() uint64 { return a.min.Period() }

// CongestionSamples counts events that have fed avgAge.
func (a *Adaptor) CongestionSamples() uint64 { return a.cong.Samples() }

// SetLocalCapacity tracks a local buffer resize.
func (a *Adaptor) SetLocalCapacity(capacity int) error { return a.min.SetLocalCapacity(capacity) }

// OnTick advances the sample-period clock and stamps the adaptation
// header (Figure 5(a), "add information to gossip message"): the
// period's κ smallest entries, each naming its owner, one at the
// paper's κ = 1. out is the node's reused round message, encoded or
// cloned before the next tick refreshes the header.
func (a *Adaptor) OnTick(n *gossip.Node, out *Message) {
	a.min.OnRound()
	out.SamplePeriod, out.MinBuff = a.min.Header()
}

// Message aliases gossip.Message for hook signatures.
type Message = gossip.Message

// OnReceive folds the incoming header into the minBuff estimate and
// updates the congestion estimate from the post-receive buffer state
// (Figure 5(a) "compute new known minimum" + Figure 5(b)).
func (a *Adaptor) OnReceive(n *gossip.Node, in *Message) {
	a.min.Observe(in.SamplePeriod, in.MinBuff)
	if overflow := n.BufferLen() - a.cong.LostLen() - a.MinBuff(); overflow > 0 {
		a.overflow = n.AppendOldestUncounted(a.overflow[:0], overflow, a.cong.Counted)
		a.cong.ObserveOverflow(a.overflow)
		clear(a.overflow)
	}
}

// OnEvicted maintains the congestion estimate as events leave the real
// buffer. Capacity evictions are true drops at a size ≥ minBuff, so
// uncounted ones feed avgAge (the pre-GC accounting of Figure 5(b) —
// see CongestionEstimator.ObserveDrop). Age expiry and resize evictions
// only prune the lost set: expiry is the protocol's normal end of life,
// and a resize transient is already handled by the minBuff mechanism.
func (a *Adaptor) OnEvicted(n *gossip.Node, evicted []gossip.Event, reason gossip.EvictReason) {
	if reason == gossip.EvictCapacity {
		for _, ev := range evicted {
			if a.cong.Counted(ev.ID) {
				a.cong.Forget(ev.ID)
			} else {
				a.cong.ObserveDrop(ev)
			}
		}
		return
	}
	for _, ev := range evicted {
		a.cong.Forget(ev.ID)
	}
}

// onRoundEnd applies the optimistic drift when a whole round produced
// no congestion samples, so an idle system does not stay throttled
// forever. Called by AdaptiveNode after each Tick.
func (a *Adaptor) onRoundEnd(maxAge int) {
	if a.cong.Samples() == a.samplesAtTick {
		a.cong.Drift(float64(maxAge))
	}
	a.samplesAtTick = a.cong.Samples()
}

var _ gossip.Extension = (*Adaptor)(nil)
