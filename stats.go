package adaptivegossip

import (
	"sort"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
)

// Stats is the unified counter snapshot shared by both facades:
// Node.Stats and Cluster.Stats return the same shape, so
// monitoring code works against any deployment of the protocol. Rates
// are aggregated per member (Nodes = 1 for a single Node); the
// Min/Max/Sum triple summarizes the adaptation allowances across the
// group.
type Stats struct {
	// Nodes is the number of local members aggregated into this
	// snapshot.
	Nodes int
	// Published counts admitted local broadcasts.
	Published uint64
	// Throttled counts local broadcasts the token bucket refused — the
	// Publish calls that returned false while the group was running.
	// Summed over the group's members; zero unless Config.Adaptive.
	Throttled uint64
	// Delivered counts events delivered to the application.
	Delivered uint64
	// DroppedCapacity counts events evicted by buffer pressure.
	DroppedCapacity uint64
	// DroppedExpired counts events purged by the age bound.
	DroppedExpired uint64
	// MessagesSent counts outgoing gossip messages.
	MessagesSent uint64
	// MinAllowedRate / MaxAllowedRate / SumAllowedRate summarize the
	// adaptation mechanism's current per-member allowances (msg/s).
	MinAllowedRate float64
	MaxAllowedRate float64
	SumAllowedRate float64
	// EventsRecovered counts events repaired by the anti-entropy
	// subsystem (zero unless Config.Recovery.Enabled).
	EventsRecovered uint64
	// ProbesSent and Confirms count failure-detector activity (zero
	// unless Config.Failure.Enabled).
	ProbesSent uint64
	Confirms   uint64
	// StreamDropped counts deliveries lost to Events subscribers that
	// fell more than DefaultEventStreamBuffer behind.
	StreamDropped uint64
	// InboxDropped counts inbound messages discarded because a member's
	// loop inbox was full — the member's protocol processing (or a
	// blocking WithDeliver callback) fell behind its endpoint. Summed
	// over the group's members.
	InboxDropped uint64
	// HealthDigestsSent, HealthDigestsReceived and HealthDigestsMerged
	// count health-digest dissemination activity (zero unless
	// Config.Observability.HealthDigests).
	HealthDigestsSent     uint64
	HealthDigestsReceived uint64
	HealthDigestsMerged   uint64
	// Wire carries the transport fabric's counters: messages and bytes
	// moved, datagram splits, and every discard on the wire (send
	// errors, injected loss, read and decode errors, receive-queue
	// overflow, datagrams with no handler). Zero when the group's
	// Transport does not implement WireStatser.
	Wire WireStats
	// Peers is the per-peer link telemetry: what the group sent toward
	// and received from each remote peer, sorted by peer id. Both
	// facades fill it, so per-link monitoring works against either
	// deployment shape; in a Cluster the members' observations of each
	// peer pool into one row.
	Peers []PeerLinkStats
}

// PeerLinkStats is one peer's link telemetry row in Stats.Peers: the
// message, byte, fan-out and failure counters kept by the transports,
// plus a summary of the ping round-trip-time distribution harvested
// from the failure detector (zero unless Config.Failure.Enabled).
type PeerLinkStats struct {
	// Peer is the remote member the row describes.
	Peer NodeID
	// MessagesSent and BytesSent count traffic toward the peer (bytes
	// stay zero on fabrics that do not serialize).
	MessagesSent uint64
	BytesSent    uint64
	// MessagesReceived and BytesReceived count traffic from the peer,
	// attributed by the decoded sender id; the UDP fabric counts only
	// senders in its address book, since ids are unauthenticated.
	MessagesReceived uint64
	BytesReceived    uint64
	// FanoutSends counts times the peer was chosen as a gossip fan-out
	// target.
	FanoutSends uint64
	// Drops counts outgoing messages to the peer dropped by injected
	// loss; SendErrors counts failed sends (socket errors, unknown
	// address).
	Drops      uint64
	SendErrors uint64
	// RTTSamples, RTTMeanMicros, RTTP50Micros and RTTP99Micros
	// summarize the ping→ack round-trip times to the peer, in
	// microseconds.
	RTTSamples    uint64
	RTTMeanMicros float64
	RTTP50Micros  float64
	RTTP99Micros  float64
}

// peerLinkStats converts the internal per-peer snapshot (already
// sorted by peer id) into the public rows.
func peerLinkStats(snaps []observe.PeerSnapshot) []PeerLinkStats {
	if len(snaps) == 0 {
		return nil
	}
	out := make([]PeerLinkStats, 0, len(snaps))
	for _, p := range snaps {
		out = append(out, PeerLinkStats{
			Peer:             NodeID(p.Peer),
			MessagesSent:     p.MessagesSent,
			BytesSent:        p.BytesSent,
			MessagesReceived: p.MessagesReceived,
			BytesReceived:    p.BytesReceived,
			FanoutSends:      p.FanoutSends,
			Drops:            p.Drops,
			SendErrors:       p.SendErrors,
			RTTSamples:       p.RTT.Count,
			RTTMeanMicros:    p.RTT.Mean(),
			RTTP50Micros:     p.RTT.Quantile(0.50),
			RTTP99Micros:     p.RTT.Quantile(0.99),
		})
	}
	return out
}

// MemberHealth is one member's entry in the converged cluster health
// view (Node.ClusterHealth, Cluster.ClusterHealth and the
// /debug/gossip/cluster endpoint): the member's self-reported
// digest — counters, buffer occupancy and a delivery hop-count summary
// — plus how stale the local copy of it is. The JSON field names are
// the endpoint's wire contract.
type MemberHealth struct {
	// Node is the member the entry describes.
	Node NodeID `json:"node"`
	// Round is the reporter's gossip round when the digest was built;
	// WallMillis its wall clock (Unix milliseconds, zero in
	// deterministic drivers).
	Round      uint64 `json:"round"`
	WallMillis uint64 `json:"wall_millis,omitempty"`
	// Published through BytesReceived mirror the reporter's protocol
	// counters at digest time.
	Published        uint64 `json:"published"`
	Delivered        uint64 `json:"delivered"`
	DroppedCapacity  uint64 `json:"dropped_capacity"`
	DroppedExpired   uint64 `json:"dropped_expired"`
	MessagesSent     uint64 `json:"messages_sent"`
	MessagesReceived uint64 `json:"messages_received"`
	BytesSent        uint64 `json:"bytes_sent"`
	BytesReceived    uint64 `json:"bytes_received"`
	// BufferLen and BufferCap are the reporter's events-buffer
	// occupancy and capacity at digest time.
	BufferLen int `json:"buffer_len"`
	BufferCap int `json:"buffer_cap"`
	// HopsSamples, HopsMean and HopsP99 summarize the reporter's
	// delivery hop-count distribution — the cluster's live
	// rounds-to-convergence measure.
	HopsSamples uint64  `json:"hops_samples"`
	HopsMean    float64 `json:"hops_mean"`
	HopsP99     float64 `json:"hops_p99"`
	// StalenessRounds is how many local gossip rounds have passed since
	// this digest was merged (0 for the local member's own digest).
	StalenessRounds uint64 `json:"staleness_rounds"`
}

// memberHealthView flattens the internal converged view into the
// public shape (input arrives sorted by node id).
func memberHealthView(view []health.MemberHealth) []MemberHealth {
	if len(view) == 0 {
		return nil
	}
	out := make([]MemberHealth, 0, len(view))
	for _, m := range view {
		d := m.Digest
		out = append(out, MemberHealth{
			Node:             d.Node,
			Round:            d.Round,
			WallMillis:       d.WallMillis,
			Published:        d.Published,
			Delivered:        d.Delivered,
			DroppedCapacity:  d.DroppedCapacity,
			DroppedExpired:   d.DroppedExpired,
			MessagesSent:     d.MessagesSent,
			MessagesReceived: d.MessagesReceived,
			BytesSent:        d.BytesSent,
			BytesReceived:    d.BytesReceived,
			BufferLen:        d.BufferLen,
			BufferCap:        d.BufferCap,
			HopsSamples:      d.DeliverHops.Count,
			HopsMean:         d.DeliverHops.Mean(),
			HopsP99:          d.DeliverHops.Quantile(0.99),
			StalenessRounds:  m.StalenessRounds,
		})
	}
	return out
}

// mergeMemberHealth folds several members' converged views into one:
// per reported node the freshest digest wins (highest Round; ties break
// toward the least stale copy), and the result is sorted by node id.
// Multi-member facades use it so their cluster view deduplicates what
// every member learned independently.
func mergeMemberHealth(views ...[]health.MemberHealth) []health.MemberHealth {
	best := make(map[gossip.NodeID]health.MemberHealth)
	for _, view := range views {
		for _, m := range view {
			cur, ok := best[m.Digest.Node]
			if !ok || m.Digest.Round > cur.Digest.Round ||
				(m.Digest.Round == cur.Digest.Round && m.StalenessRounds < cur.StalenessRounds) {
				best[m.Digest.Node] = m
			}
		}
	}
	if len(best) == 0 {
		return nil
	}
	out := make([]health.MemberHealth, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest.Node < out[j].Digest.Node })
	return out
}

// healthAugment builds the AugmentFunc that stamps a member's own
// digest with its endpoint's wire byte counters; nil for endpoints that
// keep none. It runs on the member's node loop against atomic counters.
func healthAugment(ep Endpoint) health.AugmentFunc {
	es, ok := ep.(interface{ Stats() transport.UDPStats })
	if !ok {
		return nil
	}
	return func(d *gossip.HealthDigest) {
		st := es.Stats()
		d.BytesSent, d.BytesReceived = st.SentBytes, st.RecvBytes
	}
}

// addWire folds the fabric's wire counters into the snapshot. Each
// counter is read exactly once by the fabric's WireStats method (an
// atomic load or one mutex-guarded copy per counter), so the snapshot
// is internally consistent even while senders and receivers race.
func (s *Stats) addWire(fabric Transport) {
	if ws, ok := fabric.(WireStatser); ok {
		s.Wire = ws.WireStats()
	}
}

// add folds one member's runtime snapshot into the aggregate: its
// allowance into the Min/Max/Sum triple, a bump of Nodes, and its
// counters.
func (s *Stats) add(snap runtime.NodeSnapshot) {
	if s.Nodes == 0 || snap.AllowedRate < s.MinAllowedRate {
		s.MinAllowedRate = snap.AllowedRate
	}
	if s.Nodes == 0 || snap.AllowedRate > s.MaxAllowedRate {
		s.MaxAllowedRate = snap.AllowedRate
	}
	s.SumAllowedRate += snap.AllowedRate
	s.Nodes++
	s.Published += snap.Adaptive.Published
	s.Throttled += snap.Adaptive.Throttled
	s.Delivered += snap.Gossip.Delivered
	s.DroppedCapacity += snap.Gossip.DroppedCapacity
	s.DroppedExpired += snap.Gossip.DroppedExpired
	s.MessagesSent += snap.Gossip.MessagesSent
	s.EventsRecovered += snap.Recovery.EventsRecovered
	s.ProbesSent += snap.Failure.ProbesSent
	s.Confirms += snap.Failure.Confirms
	s.HealthDigestsSent += snap.Health.DigestsSent
	s.HealthDigestsReceived += snap.Health.DigestsReceived
	s.HealthDigestsMerged += snap.Health.DigestsMerged
}

// addPeers fills the per-peer link telemetry rows from the group's
// peer table snapshot.
func (s *Stats) addPeers(table *observe.PeerTable) {
	s.Peers = peerLinkStats(table.Snapshot())
}
