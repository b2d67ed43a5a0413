// Package health disseminates per-node health digests over the gossip
// substrate itself: each node periodically folds its protocol counters
// and delivery-hop histogram into a compact gossip.HealthDigest and
// piggybacks a few digests — its own plus a round-robin relay of what
// it has heard — on every outgoing gossip message. Digests about the
// same node merge by freshness (higher gossip Round wins), so every
// member's view converges to the cluster-wide state within a few
// rounds, with no channels beyond the broadcast traffic that is
// already flowing.
package health

import (
	"sort"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// DefaultDigestsPerMessage is DigestsPerMessage's default.
const DefaultDigestsPerMessage = 4

// maxMembers bounds the remote-digest table; digests from further nodes
// are counted as ignored.
const maxMembers = 4096

// Params configures the health digest engine.
type Params struct {
	// Enabled turns dissemination on. A disabled engine is never built;
	// the flag exists so configurations can carry health settings
	// alongside the protocol's.
	Enabled bool
	// DigestsPerMessage bounds how many digests ride one gossip
	// message: the node's own plus DigestsPerMessage-1 relayed ones.
	// Zero means DefaultDigestsPerMessage.
	DigestsPerMessage int
}

func (p Params) withDefaults() Params {
	if p.DigestsPerMessage == 0 {
		p.DigestsPerMessage = DefaultDigestsPerMessage
	}
	return p
}

// AugmentFunc lets the embedding layer enrich the self digest with
// facts the gossip node does not know — transport byte counters, the
// delivery-hop histogram — before it is attached to outgoing messages.
type AugmentFunc func(d *gossip.HealthDigest)

// Stats counts the engine's digest traffic.
type Stats struct {
	DigestsSent     uint64 // digests attached to outgoing messages
	DigestsReceived uint64 // digests seen on incoming messages
	DigestsMerged   uint64 // received digests that updated the table
	DigestsIgnored  uint64 // stale, self-describing, empty or over-capacity
}

// MemberHealth is one row of the converged cluster view.
type MemberHealth struct {
	Digest gossip.HealthDigest
	// UpdatedRound is the local engine round at which the digest was
	// last refreshed (self) or merged (remote).
	UpdatedRound uint64
	// StalenessRounds is how many local rounds ago that was.
	StalenessRounds uint64
}

type memberEntry struct {
	digest  gossip.HealthDigest
	updated uint64
}

// Engine is the gossip.Extension implementing digest dissemination.
// Hook methods run on the node's driver goroutine; accessors are safe
// from any goroutine.
type Engine struct {
	self    gossip.NodeID
	params  Params
	augment AugmentFunc

	// Now stamps WallMillis on self refreshes. Defaults to time.Now;
	// tests and simulations inject a fixed clock for determinism.
	Now func() time.Time

	mu sync.Mutex
	// round counts OnTick calls; own is the node's digest from the
	// latest, set once round > 0.
	round   uint64
	own     gossip.HealthDigest
	members map[gossip.NodeID]*memberEntry
	order   []gossip.NodeID // sorted member ids, round-robin relay ring
	cursor  int
	stats   Stats
}

// New creates an engine for the named node.
func New(self gossip.NodeID, p Params, augment AugmentFunc) *Engine {
	return &Engine{
		self:    self,
		params:  p.withDefaults(),
		augment: augment,
		Now:     time.Now,
		members: make(map[gossip.NodeID]*memberEntry),
	}
}

// OnTick refreshes the self digest and piggybacks the digest budget —
// self first, then a round-robin window over the known members — onto
// the outgoing message. Steady-state it allocates nothing: digests
// append into the message's reused Health scratch.
func (e *Engine) OnTick(n *gossip.Node, out *gossip.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.round++
	e.refreshSelfLocked(n)
	out.Health = append(out.Health, e.own)
	e.stats.DigestsSent++
	relay := e.params.DigestsPerMessage - 1
	for i := 0; i < relay && i < len(e.order); i++ {
		if e.cursor >= len(e.order) {
			e.cursor = 0
		}
		id := e.order[e.cursor]
		e.cursor++
		out.Health = append(out.Health, e.members[id].digest)
		e.stats.DigestsSent++
	}
}

// OnReceive merges piggybacked digests into the member table. For each
// node the freshest digest wins (higher origin Round); digests about
// the receiver itself, empty ones, and ones past the maxMembers bound
// are ignored.
func (e *Engine) OnReceive(n *gossip.Node, in *gossip.Message) {
	if len(in.Health) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range in.Health {
		d := &in.Health[i]
		e.stats.DigestsReceived++
		if d.Node == "" || d.Node == e.self {
			e.stats.DigestsIgnored++
			continue
		}
		if ent, ok := e.members[d.Node]; ok {
			if d.Round > ent.digest.Round {
				ent.digest = *d
				ent.updated = e.round
				e.stats.DigestsMerged++
			} else {
				e.stats.DigestsIgnored++
			}
			continue
		}
		if len(e.members) >= maxMembers {
			e.stats.DigestsIgnored++
			continue
		}
		e.members[d.Node] = &memberEntry{digest: *d, updated: e.round}
		e.insertOrderLocked(d.Node)
		e.stats.DigestsMerged++
	}
}

func (e *Engine) insertOrderLocked(id gossip.NodeID) {
	i := sort.Search(len(e.order), func(i int) bool { return e.order[i] >= id })
	e.order = append(e.order, "")
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = id
	if i < e.cursor {
		e.cursor++
	}
}

func (e *Engine) refreshSelfLocked(n *gossip.Node) {
	s := n.Stats()
	// Filled in place: a local digest would escape through the augment
	// callback, some 700 bytes per refresh.
	e.own = gossip.HealthDigest{
		Node:             e.self,
		Round:            n.Round(),
		WallMillis:       uint64(e.Now().UnixMilli()),
		Published:        s.Broadcasts,
		Delivered:        s.Delivered,
		DroppedCapacity:  s.DroppedCapacity,
		DroppedExpired:   s.DroppedExpired,
		MessagesSent:     s.MessagesSent,
		MessagesReceived: s.MessagesReceived,
		BufferLen:        n.BufferLen(),
		BufferCap:        n.BufferCapacity(),
	}
	if e.augment != nil {
		e.augment(&e.own)
	}
}

// Stats returns the digest traffic counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Members reports how many nodes the engine has a digest for,
// including itself once it has ticked.
func (e *Engine) Members() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.members)
	if e.round > 0 {
		n++
	}
	return n
}

// Snapshot returns the converged cluster view, sorted by node id. The
// engine's own digest is included with zero staleness.
func (e *Engine) Snapshot() []MemberHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]MemberHealth, 0, len(e.members)+1)
	for _, id := range e.order {
		ent := e.members[id]
		out = append(out, MemberHealth{
			Digest:          ent.digest,
			UpdatedRound:    ent.updated,
			StalenessRounds: e.round - ent.updated,
		})
	}
	if e.round > 0 {
		out = append(out, MemberHealth{Digest: e.own, UpdatedRound: e.round})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest.Node < out[j].Digest.Node })
	return out
}

// MergedDeliverHops folds every known digest's delivery-hop histogram
// (own included) into one cluster-wide snapshot.
func (e *Engine) MergedDeliverHops() (m observe.HistogramSnapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.round > 0 {
		m = e.own.DeliverHops
	}
	for _, ent := range e.members {
		m.Merge(ent.digest.DeliverHops)
	}
	return m
}
