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
	params Params
	min    *MinBuffEstimator
	kmin   *KMinEstimator // non-nil when params.MinBuffRank > 1
	cong   *CongestionEstimator

	samplesAtTick uint64 // congestion samples seen as of the last tick
	driftRounds   uint64

	// scalarHdr is reused scratch for promoting a rank-1 scalar header
	// to a single-entry κ-min observation without a per-receive slice.
	scalarHdr [1]MinEntry

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
	a := &Adaptor{params: params, cong: cong}
	if params.MinBuffRank > 1 {
		a.kmin, err = NewKMinEstimator(id, params.MinBuffRank, params.MinBuffFloor,
			params.Window, params.SamplePeriodRounds, localCap)
	} else {
		a.min, err = NewMinBuffEstimator(params.Window, params.SamplePeriodRounds, localCap)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// MinBuff returns the working estimate of the relevant smallest buffer
// in the group.
func (a *Adaptor) MinBuff() int {
	if a.kmin != nil {
		return a.kmin.Estimate()
	}
	return a.min.Estimate()
}

// AvgAge returns the congestion estimate.
func (a *Adaptor) AvgAge() float64 { return a.cong.AvgAge() }

// SamplePeriod returns the current period s.
func (a *Adaptor) SamplePeriod() uint64 {
	if a.kmin != nil {
		return a.kmin.Period()
	}
	return a.min.Period()
}

// DriftRounds counts rounds in which the frozen-signal drift applied.
func (a *Adaptor) DriftRounds() uint64 { return a.driftRounds }

// CongestionSamples counts events that have fed avgAge.
func (a *Adaptor) CongestionSamples() uint64 { return a.cong.Samples() }

// SetLocalCapacity tracks a local buffer resize.
func (a *Adaptor) SetLocalCapacity(capacity int) error {
	if a.kmin != nil {
		return a.kmin.SetLocalCapacity(capacity)
	}
	return a.min.SetLocalCapacity(capacity)
}

// OnTick advances the sample-period clock and stamps the adaptation
// header (Figure 5(a), "add information to gossip message").
func (a *Adaptor) OnTick(n *gossip.Node, out *Message) {
	out.Adaptive = true
	if a.kmin != nil {
		a.kmin.OnRound()
		period, entries := a.kmin.Header()
		out.SamplePeriod = period
		// out is the node's reused round message, encoded or cloned
		// before the next tick refreshes the header.
		out.KMin = entries
		// The scalar header remains meaningful for rank-1 receivers.
		if len(entries) > 0 {
			out.MinBuff = entries[0].Cap
		} else {
			out.MinBuff = a.kmin.localCap
		}
		return
	}
	a.min.OnRound()
	out.SamplePeriod, out.MinBuff = a.min.Header()
}

// Message aliases gossip.Message for hook signatures.
type Message = gossip.Message

// OnReceive folds the incoming header into the minBuff estimate and
// updates the congestion estimate from the post-receive buffer state
// (Figure 5(a) "compute new known minimum" + Figure 5(b)).
func (a *Adaptor) OnReceive(n *gossip.Node, in *Message) {
	if in.Adaptive {
		if a.kmin != nil {
			if len(in.KMin) > 0 {
				a.kmin.Observe(in.SamplePeriod, in.KMin)
			} else {
				a.scalarHdr[0] = MinEntry{Node: in.From, Cap: in.MinBuff}
				a.kmin.Observe(in.SamplePeriod, a.scalarHdr[:])
			}
		} else {
			a.min.Observe(in.SamplePeriod, in.MinBuff)
		}
	}
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
// no congestion samples. Called by AdaptiveNode after each Tick.
func (a *Adaptor) onRoundEnd(maxAge int) {
	if !a.params.OptimisticDrift {
		return
	}
	if a.cong.Samples() == a.samplesAtTick {
		a.cong.Drift(float64(maxAge))
		a.driftRounds++
	}
	a.samplesAtTick = a.cong.Samples()
}

var _ gossip.Extension = (*Adaptor)(nil)
