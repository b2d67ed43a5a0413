package traced

import (
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/gossip"
)

// The gossip layer's vocabulary, named once for the driver.
type (
	nodeID       = gossip.NodeID
	message      = gossip.Message
	outgoing     = gossip.Outgoing
	event        = gossip.Event
	gossipParams = gossip.Params
	extension    = gossip.Extension
	memberStatus = gossip.MemberStatus
)

const (
	memberAlive     = gossip.MemberAlive
	memberConfirmed = gossip.MemberConfirmed
)

// isRoundMessage tells a round's gossip message from control traffic
// (recovery pulls, failure-detector probes).
func isRoundMessage(m *message) bool { return m.Kind == gossip.KindGossip }

// peerSource is what a node draws gossip targets from.
type peerSource interface {
	gossip.PeerSampler
	gossip.PeerAppender
}

// timedSampler decorates a peer source with a span around every draw:
// the membership layer's cost per round.
type timedSampler struct {
	inner peerSource
	tr    *Tracer
	round *uint64
}

func (s *timedSampler) SamplePeers(self nodeID, k int, rng *rand.Rand) []nodeID {
	return s.AppendPeers(nil, self, k, rng)
}

func (s *timedSampler) AppendPeers(dst []nodeID, self nodeID, k int, rng *rand.Rand) []nodeID {
	id := s.tr.Begin("membership.sample", *s.round)
	dst = s.inner.AppendPeers(dst, self, k, rng)
	s.tr.End(id)
	return dst
}

// handoffProbe is a gossip extension that notes when a message reaches
// the node loop. The runner probe stamps each message's Round (a
// diagnostic field) with its index, so a hand-off survives dropped
// messages unambiguously.
type handoffProbe struct {
	arrived []time.Time
}

func (p *handoffProbe) OnTick(*gossip.Node, *message) {}
func (p *handoffProbe) OnReceive(_ *gossip.Node, in *message) {
	if in.Round < uint64(len(p.arrived)) {
		p.arrived[in.Round] = time.Now()
	}
}
func (p *handoffProbe) OnEvicted(*gossip.Node, []event, gossip.EvictReason) {}
