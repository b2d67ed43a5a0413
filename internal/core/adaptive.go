package core

import (
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
)

// NodeConfig assembles a complete broadcast node.
type NodeConfig struct {
	// ID is the node identifier.
	ID gossip.NodeID
	// Gossip configures the lpbcast substrate (Figure 1).
	Gossip gossip.Params
	// Adaptive enables the adaptation mechanism. When false the node is
	// plain lpbcast with an unbounded input rate — the paper's
	// comparison baseline.
	Adaptive bool
	// Core configures the adaptation mechanism (used when Adaptive).
	Core Params
	// Recovery configures the anti-entropy pull-repair subsystem; the
	// engine is built when Recovery.Enabled is set. Recovery is
	// orthogonal to Adaptive: either, both or neither may be on.
	Recovery recovery.Params
	// Failure configures the SWIM-style failure detector; the engine is
	// built when Failure.Enabled is set. Orthogonal to Adaptive and
	// Recovery.
	Failure failure.Params
	// OnMembership observes the detector's status transitions (used
	// when Failure.Enabled). Drivers typically evict confirmed members
	// from their registries and partial views here and re-admit members
	// that prove alive. Runs synchronously on the node's driver.
	OnMembership failure.OnChangeFunc
	// Health configures gossip-disseminated health digests; the engine
	// is built when Health.Enabled is set. Orthogonal to the other
	// subsystems.
	Health health.Params
	// HealthAugment, when non-nil, enriches the node's own health
	// digest with facts only the embedding layer knows (e.g. transport
	// byte counters). It runs after the core has filled the digest's
	// protocol counters and delivery-hop histogram.
	HealthAugment health.AugmentFunc
	// Links, when non-nil, is the per-peer telemetry table shared with
	// the transport; the failure detector feeds ping RTT observations
	// into it.
	Links *observe.PeerTable
	// Peers supplies gossip targets.
	Peers gossip.PeerSampler
	// RNG drives all protocol randomness; inject a seeded generator for
	// deterministic simulation.
	RNG *rand.Rand
	// Deliver receives each event exactly once (optional).
	Deliver gossip.DeliverFunc
	// Extensions are additional protocol extensions (e.g. a partial
	// view); they run after the adaptation hooks.
	Extensions []gossip.Extension
	// Metrics, when non-nil, receives the substrate's alloc-free
	// hot-path histograms (delivery hops, drop ages, round sizes). A
	// block may be shared across nodes; observations pool.
	Metrics *observe.NodeMetrics
	// Tracer, when non-nil, samples rumor lifecycles
	// (publish/first-send/receive/deliver/drop).
	Tracer observe.Tracer
	// Start is the creation instant (token bucket epoch).
	Start time.Time
}

// AdaptiveStats counts adaptation activity.
type AdaptiveStats struct {
	Published uint64 // broadcasts admitted by the token bucket
	Throttled uint64 // broadcasts rejected by the token bucket
	Rate      RateStats
	AvgTokens float64
}

// AdaptiveNode is the complete adaptive gossip broadcast node: the
// lpbcast state machine and the Figure 5 adaptation loop with its
// Figure 3 token bucket. With Adaptive=false it degrades to the plain
// lpbcast baseline (no input bound), which is how the paper's
// comparison runs are configured.
//
// AdaptiveNode is not safe for concurrent use; a driver serializes
// Publish, Tick and Receive, passing the current time in.
type AdaptiveNode struct {
	node     *gossip.Node
	adaptor  *Adaptor         // nil when not adaptive
	recovery *recovery.Engine // nil when recovery is disabled
	failure  *failure.Engine  // nil when failure detection is disabled
	health   *health.Engine   // nil when health digests are disabled

	// outs is what Tick and Receive return when a subsystem with control
	// traffic is on: the substrate's round fanout and the subsystems'
	// control messages gathered into one reused slice.
	outs []gossip.Outgoing

	published uint64
	throttled uint64
}

// NewAdaptiveNode builds a node from cfg.
func NewAdaptiveNode(cfg NodeConfig) (*AdaptiveNode, error) {
	a := &AdaptiveNode{}
	exts := make([]gossip.Extension, 0, len(cfg.Extensions)+2)
	if cfg.Adaptive {
		adaptor, err := NewAdaptor(cfg.ID, cfg.Core, cfg.Gossip.MaxEvents, cfg.RNG, cfg.Start)
		if err != nil {
			return nil, err
		}
		a.adaptor = adaptor
		exts = append(exts, adaptor)
	}
	if cfg.Recovery.Enabled {
		engine, err := recovery.NewEngine(cfg.Recovery)
		if err != nil {
			return nil, err
		}
		a.recovery = engine
		exts = append(exts, engine)
	}
	if cfg.Failure.Enabled {
		engine, err := failure.NewEngine(cfg.ID, cfg.Failure, cfg.Peers, cfg.RNG)
		if err != nil {
			return nil, err
		}
		engine.SetOnChange(cfg.OnMembership)
		if cfg.Links != nil {
			engine.SetLinks(cfg.Links)
		}
		a.failure = engine
		exts = append(exts, engine)
	}
	if cfg.Health.Enabled {
		metrics, aug := cfg.Metrics, cfg.HealthAugment
		a.health = health.New(cfg.ID, cfg.Health, func(d *gossip.HealthDigest) {
			if metrics != nil {
				d.DeliverHops = metrics.DeliverHops.Snapshot()
			}
			if aug != nil {
				aug(d)
			}
		})
		exts = append(exts, a.health)
	}
	exts = append(exts, cfg.Extensions...)

	node, err := gossip.NewNode(cfg.ID, cfg.Gossip, cfg.Peers, cfg.RNG,
		gossip.WithDeliver(cfg.Deliver), gossip.WithExtensions(exts...),
		gossip.WithMetrics(cfg.Metrics), gossip.WithTracer(cfg.Tracer))
	if err != nil {
		return nil, err
	}
	a.node = node
	return a, nil
}

// ID returns the node identifier.
func (a *AdaptiveNode) ID() gossip.NodeID { return a.node.ID() }

// Gossip exposes the underlying lpbcast node (read-only use).
func (a *AdaptiveNode) Gossip() *gossip.Node { return a.node }

// Adaptive reports whether the adaptation mechanism is active.
func (a *AdaptiveNode) Adaptive() bool { return a.adaptor != nil }

// Publish attempts to broadcast payload at time now. With adaptation
// enabled, admission is gated by the token bucket (Figure 3): the
// returned bool reports whether the event was admitted. The baseline
// node admits everything.
func (a *AdaptiveNode) Publish(payload []byte, now time.Time) (gossip.Event, bool) {
	if a.adaptor != nil && !a.adaptor.Admit(now) {
		a.throttled++
		return gossip.Event{}, false
	}
	a.published++
	return a.node.Broadcast(payload), true
}

// Tick runs one gossip round at time now: the rate-adaptation step of
// Figure 5(c), the Figure 1 gossip emission, then the end of the
// adaptation round (Adaptor.EndRound). With recovery
// enabled, the returned slice also carries this round's anti-entropy
// pull requests; drivers transmit every entry alike. The slice and the
// messages in it are scratch (gossip.Node.Tick's contract), valid until
// the next Tick or Receive.
func (a *AdaptiveNode) Tick(now time.Time) []gossip.Outgoing {
	if a.adaptor != nil {
		a.adaptor.Adjust(now)
	}
	outs := a.node.Tick()
	if a.adaptor != nil {
		a.adaptor.EndRound(a.node.Params().MaxAge)
	}
	if a.recovery == nil && a.failure == nil {
		return outs
	}
	a.outs = append(a.outs[:0], outs...)
	return a.withControl()
}

// withControl appends the subsystems' queued control messages to a.outs
// and returns it (nil when empty), valid until the next Tick or Receive.
func (a *AdaptiveNode) withControl() []gossip.Outgoing {
	if a.recovery != nil {
		a.outs = append(a.outs, a.recovery.TakeOutgoing()...)
	}
	if a.failure != nil {
		a.outs = append(a.outs, a.failure.TakeOutgoing()...)
	}
	if len(a.outs) == 0 {
		return nil
	}
	return a.outs
}

// Receive processes an incoming gossip message at time now. The
// returned messages are subsystem control traffic (recovery
// retransmission responses, failure-detector acks and relays) that the
// driver must transmit; it is nil when both subsystems are disabled.
// Like Tick's, they are scratch, valid until the next Tick or Receive.
func (a *AdaptiveNode) Receive(msg *gossip.Message, now time.Time) []gossip.Outgoing {
	a.node.Receive(msg)
	if a.recovery == nil && a.failure == nil {
		return nil
	}
	a.outs = a.outs[:0]
	return a.withControl()
}

// SetBufferCapacity resizes the local events buffer at runtime,
// informing the minBuff estimator (the dynamic-resource scenario of
// paper §4).
func (a *AdaptiveNode) SetBufferCapacity(capacity int) error {
	if err := a.node.SetBufferCapacity(capacity); err != nil {
		return err
	}
	if a.adaptor != nil {
		return a.adaptor.min.SetLocalCapacity(capacity)
	}
	return nil
}

// AllowedRate returns the sender's current allowed rate in msg/s, or
// +Inf conceptually for the baseline; baseline nodes report 0 to mean
// "unbounded".
func (a *AdaptiveNode) AllowedRate() float64 {
	if a.adaptor == nil {
		return 0
	}
	return a.adaptor.rate
}

// AvgAge returns the congestion estimate (0 when not adaptive).
func (a *AdaptiveNode) AvgAge() float64 {
	if a.adaptor == nil {
		return 0
	}
	return a.adaptor.avgAge
}

// MinBuffEstimate returns the working group-minimum buffer estimate
// (0 when not adaptive).
func (a *AdaptiveNode) MinBuffEstimate() int {
	if a.adaptor == nil {
		return 0
	}
	return a.adaptor.min.Estimate()
}

// SamplePeriod returns the adaptation sample period s (0 when not
// adaptive).
func (a *AdaptiveNode) SamplePeriod() uint64 {
	if a.adaptor == nil {
		return 0
	}
	return a.adaptor.min.Period()
}

// BufferLen reports the buffered event count.
func (a *AdaptiveNode) BufferLen() int { return a.node.BufferLen() }

// BufferCapacity reports the local buffer bound.
func (a *AdaptiveNode) BufferCapacity() int { return a.node.BufferCapacity() }

// GossipStats returns the substrate's counters.
func (a *AdaptiveNode) GossipStats() gossip.NodeStats { return a.node.Stats() }

// RecoveryStats returns the anti-entropy counters (zero when recovery
// is disabled).
func (a *AdaptiveNode) RecoveryStats() recovery.Stats {
	if a.recovery == nil {
		return recovery.Stats{}
	}
	return a.recovery.Stats()
}

// FailureStats returns the detector counters (zero when failure
// detection is disabled).
func (a *AdaptiveNode) FailureStats() failure.Stats {
	if a.failure == nil {
		return failure.Stats{}
	}
	return a.failure.Stats()
}

// MemberStatus reports the detector's opinion of a member (MemberAlive
// when detection is disabled or the member is unknown).
func (a *AdaptiveNode) MemberStatus(id gossip.NodeID) gossip.MemberStatus {
	if a.failure == nil {
		return gossip.MemberAlive
	}
	return a.failure.Status(id)
}

// FailureRejoin resets the detector to freshly-restarted state: remote
// opinions are dropped and the node reannounces itself with a bumped
// incarnation. Drivers call it when a stopped process rejoins the
// group. No-op when detection is disabled.
func (a *AdaptiveNode) FailureRejoin() {
	if a.failure != nil {
		a.failure.Rejoin()
	}
}

// HealthStats returns the digest traffic counters (zero when health
// dissemination is disabled).
func (a *AdaptiveNode) HealthStats() health.Stats {
	if a.health == nil {
		return health.Stats{}
	}
	return a.health.Stats()
}

// ClusterHealth returns the node's converged view of every member's
// health digest, sorted by node id (nil when dissemination is
// disabled).
func (a *AdaptiveNode) ClusterHealth() []health.MemberHealth {
	if a.health == nil {
		return nil
	}
	return a.health.Snapshot()
}

// Stats returns the adaptation counters.
func (a *AdaptiveNode) Stats() AdaptiveStats {
	st := AdaptiveStats{Published: a.published, Throttled: a.throttled}
	if a.adaptor != nil {
		st.Rate, st.AvgTokens = a.adaptor.stats, a.adaptor.avgTokens
	}
	return st
}
