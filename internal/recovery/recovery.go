// Package recovery implements digest-based anti-entropy pull repair on
// top of the push-gossip substrate (internal/gossip).
//
// Pure push gossip loses events for good when every copy of a
// transmission window is dropped — the iid-loss and partition scenarios
// internal/sim models. The adaptation mechanism of the paper can only
// slow senders down; it cannot repair. Push-pull hybrids close exactly
// this gap with low overhead (Haeupler, "Simple, Fast and Deterministic
// Gossip and Rumor Spreading"): each gossip round piggybacks a compact
// digest of recently-seen event identifiers, receivers diff the digest
// against their own delivered set and pull the missing events from the
// digest's sender, and senders serve retransmissions from a bounded,
// age-GC'd store that outlives the events buffer.
//
// The Engine is a gossip.Extension plus a queue of outgoing control
// messages (requests and responses). Drivers must drain the queue —
// core.AdaptiveNode does this from Tick and Receive — and transmit the
// returned messages; the engine itself never touches a transport.
//
// Like the rest of the protocol stack, an Engine is single-threaded:
// the owning driver serializes all hook and drain calls. All internal
// iteration is in deterministic order so simulation runs stay
// reproducible under a seeded RNG.
package recovery

import (
	"fmt"

	"adaptivegossip/internal/gossip"
)

// Defaults for Params. DigestLen and RequestBudget bound the per-round
// wire overhead; RetainRounds and StoreCapacity bound the repair
// memory.
const (
	DefaultDigestLen     = 128
	DefaultRequestBudget = 64
	DefaultRetainRounds  = 30
	DefaultStoreCapacity = 1024
)

// The pull's constants: how a missing event is chased.
const (
	// retryRounds is the number of rounds to wait for a response before
	// re-requesting a missing event from its latest advertiser.
	retryRounds = 2
	// giveUpRounds bounds how long a missing event is chased; beyond it
	// the identifier is dropped from the missing set.
	giveUpRounds = 20
	// maxMissing bounds the missing-event tracking set.
	maxMissing = 512
)

// Params configures the recovery engine. The zero value of every field
// except Enabled means "use the default".
type Params struct {
	// Enabled turns the subsystem on. A disabled engine is never built;
	// the flag exists so configurations can carry recovery settings
	// alongside the protocol's.
	Enabled bool
	// DigestLen is the number of recently-seen event identifiers
	// advertised in each outgoing gossip message.
	DigestLen int
	// RequestBudget caps the missing identifiers requested per round
	// across all targets — the pull bandwidth bound.
	RequestBudget int
	// RetainRounds is the retransmission store's GC horizon: events
	// observed more than this many rounds ago are dropped.
	RetainRounds int
	// StoreCapacity bounds the retransmission store (events). When
	// full, the oldest stored event is evicted.
	StoreCapacity int
}

// withDefaults fills zero-valued fields.
func (p Params) withDefaults() Params {
	if p.DigestLen == 0 {
		p.DigestLen = DefaultDigestLen
	}
	if p.RequestBudget == 0 {
		p.RequestBudget = DefaultRequestBudget
	}
	if p.RetainRounds == 0 {
		p.RetainRounds = DefaultRetainRounds
	}
	if p.StoreCapacity == 0 {
		p.StoreCapacity = DefaultStoreCapacity
	}
	return p
}

// Validate reports the first configuration error.
func (p Params) Validate() error {
	p = p.withDefaults()
	if p.DigestLen < 0 {
		return fmt.Errorf("recovery: digest length must be non-negative, got %d", p.DigestLen)
	}
	if p.RequestBudget < 0 {
		return fmt.Errorf("recovery: request budget must be non-negative, got %d", p.RequestBudget)
	}
	if p.RetainRounds < 0 || p.StoreCapacity < 0 {
		return fmt.Errorf("recovery: bounds must be non-negative")
	}
	return nil
}

// Stats counts recovery activity since the engine was created.
type Stats struct {
	DigestsSent       uint64 // digests piggybacked on outgoing gossip (one per tick)
	DigestsReceived   uint64 // gossip messages carrying a digest
	RequestsSent      uint64 // request messages emitted
	IDsRequested      uint64 // identifiers requested (≤ budget per round)
	RequestsReceived  uint64 // request messages handled
	ResponsesSent     uint64 // response messages emitted
	ResponsesReceived uint64 // response messages handled
	EventsServed      uint64 // events retransmitted to requesters
	EventsUnserved    uint64 // requested identifiers not in the store
	EventsRecovered   uint64 // tracked-missing events obtained via responses
	MissingGaveUp     uint64 // missing identifiers dropped after giveUpRounds
	MissingOverflow   uint64 // advertisements ignored because maxMissing was hit
	StoreEvicted      uint64 // store evictions (capacity and GC)
}

// Add folds o's counters into s: a group's or a seed sweep's totals.
func (s *Stats) Add(o Stats) {
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

// store is the bounded retransmission store: the events observed, in
// observation order, the oldest evicted when full or older than the GC
// horizon. An IDCache keeps the ids and their order, and the events and
// the rounds they were observed at sit in slices indexed by the id's
// ring slot. Re-observing a stored event is a no-op, so the order is
// also round order.
type store struct {
	ids    *gossip.IDCache
	events []gossip.Event // by ring slot; an empty slot holds no payload
	rounds []uint64       // by ring slot: the round the event was observed
}

func newStore(capacity int) (*store, error) {
	ids, err := gossip.NewIDCache(capacity)
	if err != nil {
		return nil, err
	}
	return &store{ids: ids, events: make([]gossip.Event, capacity), rounds: make([]uint64, capacity)}, nil
}

func (s *store) len() int { return s.ids.Len() }

// add retains ev, evicting the oldest entry when full. It reports
// whether the event was new and whether an entry was evicted. borrowed
// says ev.Payload aliases a transport receive buffer
// (gossip.Message.Borrowed): once the event is known to be new to the
// store, the store takes the payload n's buffer holds — the copy
// gossip.Node.Receive made when it met the event, shared from then on —
// and has n.OwnPayload make one only when n no longer buffers the event
// (a duplicate to the node whose store entry was GC'd).
func (s *store) add(ev gossip.Event, round uint64, borrowed bool, n *gossip.Node) (added, evicted bool) {
	full := s.ids.Len() == s.ids.Capacity()
	slot, added := s.ids.Add(ev.ID)
	if !added {
		return false, false
	}
	if borrowed {
		if held, ok := n.Buffered(ev.ID); ok {
			ev.Payload = held.Payload
		} else {
			ev.Payload = n.OwnPayload(ev.Payload)
		}
	}
	// A full store's oldest entry had this slot: its payload goes.
	s.events[slot], s.rounds[slot] = ev, round
	return true, full
}

func (s *store) get(id gossip.EventID) (gossip.Event, bool) {
	slot := s.ids.Slot(id)
	if slot < 0 {
		return gossip.Event{}, false
	}
	return s.events[slot], true
}

// gc drops entries observed more than retain rounds before now.
func (s *store) gc(now uint64, retain int) (evicted int) {
	for slot := s.ids.Oldest(); slot >= 0 && s.rounds[slot]+uint64(retain) < now; slot = s.ids.Oldest() {
		s.ids.PopOldest()
		s.events[slot] = gossip.Event{}
		evicted++
	}
	return evicted
}

// missingEntry tracks one event known to exist but not yet delivered.
type missingEntry struct {
	source     gossip.NodeID // latest advertiser, the pull target
	firstRound uint64        // round the id was first advertised to us
	lastReq    uint64        // round of the last request, 0 = never
}

// Engine is the per-node anti-entropy state machine. It implements
// gossip.Extension (digest piggybacking, digest diffing, store
// maintenance) and queues the control messages drivers must send.
type Engine struct {
	params Params
	digest *gossip.IDCache // recently-seen ids, digest source
	store  *store
	round  uint64

	missing   map[gossip.EventID]*missingEntry
	missOrder []gossip.EventID // FIFO of advertisement order; may hold stale ids

	// Per-round scratch, reused: the digest piggybacked on the round
	// message (valid as long as that message is, see gossip.Node.Tick),
	// and the request messages of the round being built, one per target.
	digestScratch []gossip.EventID
	requests      []gossip.Outgoing

	out   gossip.Outbox
	stats Stats
}

// NewEngine builds an engine from params (defaults applied).
func NewEngine(params Params) (*Engine, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	digest, err := gossip.NewIDCache(params.DigestLen)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	store, err := newStore(params.StoreCapacity)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return &Engine{
		params:  params,
		digest:  digest,
		store:   store,
		missing: make(map[gossip.EventID]*missingEntry),
	}, nil
}

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// MissingLen reports the number of tracked missing events.
func (e *Engine) MissingLen() int { return len(e.missing) }

// observe retains an event for retransmission and records its id in
// the digest source. borrowed is the Borrowed flag of the message the
// event arrived in (false for events out of the node's own buffer).
func (e *Engine) observe(n *gossip.Node, ev gossip.Event, borrowed bool) {
	if _, evicted := e.store.add(ev, e.round, borrowed, n); evicted {
		e.stats.StoreEvicted++
	}
	e.digest.Add(ev.ID)
}

// OnTick advances the engine round, GCs the store, piggybacks the
// digest on the outgoing gossip message and queues this round's pull
// requests (subject to RequestBudget).
func (e *Engine) OnTick(n *gossip.Node, out *gossip.Message) {
	e.round++
	e.stats.StoreEvicted += uint64(e.store.gc(e.round, e.params.RetainRounds))
	// The buffer snapshot passes through here every round, which is how
	// locally-broadcast events (no OnReceive hook) enter the store.
	for _, ev := range out.Events {
		e.observe(n, ev, false)
	}
	if e.digestScratch = e.digest.AppendIDs(e.digestScratch[:0]); len(e.digestScratch) > 0 {
		out.Digest = e.digestScratch
		e.stats.DigestsSent++
	}
	e.buildRequests(n)
}

// OnReceive handles the three message kinds: gossip (store events,
// diff the digest), requests (queue a response from the store) and
// responses (settle the missing set; the events themselves were
// already delivered by the node's normal receive path).
func (e *Engine) OnReceive(n *gossip.Node, in *gossip.Message) {
	switch in.Kind {
	case gossip.KindGossip:
		for _, ev := range in.Events {
			e.observe(n, ev, in.Borrowed)
		}
		if len(in.Digest) > 0 {
			e.stats.DigestsReceived++
			e.diffDigest(n, in.From, in.Digest)
		}
	case gossip.KindRecoveryRequest:
		e.stats.RequestsReceived++
		e.serveRequest(n, in)
	case gossip.KindRecoveryResponse:
		e.stats.ResponsesReceived++
		for _, ev := range in.Events {
			if _, tracked := e.missing[ev.ID]; tracked {
				delete(e.missing, ev.ID)
				e.stats.EventsRecovered++
			}
			e.observe(n, ev, in.Borrowed)
		}
	}
}

// OnEvicted retains buffer eviction victims: an event pushed out of the
// events buffer is exactly the kind of event that may still need to be
// served to a peer that lost every push copy.
func (e *Engine) OnEvicted(n *gossip.Node, evicted []gossip.Event, reason gossip.EvictReason) {
	for _, ev := range evicted {
		e.observe(n, ev, false)
	}
}

// diffDigest records advertised ids the node has not seen.
func (e *Engine) diffDigest(n *gossip.Node, from gossip.NodeID, digest []gossip.EventID) {
	for _, id := range digest {
		if n.Seen(id) {
			continue
		}
		if m, ok := e.missing[id]; ok {
			m.source = from // prefer the freshest advertiser
			continue
		}
		if len(e.missing) >= maxMissing {
			e.stats.MissingOverflow++
			continue
		}
		e.missing[id] = &missingEntry{source: from, firstRound: e.round}
		e.missOrder = append(e.missOrder, id)
	}
}

// serveRequest answers a retransmission request from the store.
func (e *Engine) serveRequest(n *gossip.Node, in *gossip.Message) {
	var resp *gossip.Message
	for _, id := range in.Request {
		ev, ok := e.store.get(id)
		if !ok {
			e.stats.EventsUnserved++
			continue
		}
		if resp == nil {
			resp = e.out.Message()
			resp.Kind, resp.From, resp.Round = gossip.KindRecoveryResponse, n.ID(), e.round
		}
		resp.Events = append(resp.Events, ev)
	}
	if resp == nil {
		return
	}
	e.stats.ResponsesSent++
	e.stats.EventsServed += uint64(len(resp.Events))
	e.out.Queue(in.From, resp)
}

// buildRequests walks the missing set in advertisement order and queues
// up to RequestBudget identifiers as request messages, batched per
// target peer. Ids delivered in the meantime are dropped; ids chased
// longer than giveUpRounds are abandoned.
func (e *Engine) buildRequests(n *gossip.Node) {
	if len(e.missing) == 0 {
		e.compactMissOrder()
		return
	}
	budget, selected := e.params.RequestBudget, 0
	e.requests = e.requests[:0]
	for _, id := range e.missOrder {
		if selected >= budget {
			break
		}
		m, ok := e.missing[id]
		if !ok {
			continue // stale order entry: recovered, given up, or re-added later
		}
		if m.lastReq == e.round {
			continue // duplicate order entry already handled this round
		}
		if n.Seen(id) {
			delete(e.missing, id) // arrived through normal push gossip
			continue
		}
		if e.round-m.firstRound >= giveUpRounds {
			delete(e.missing, id)
			e.stats.MissingGaveUp++
			continue
		}
		if m.lastReq != 0 && e.round-m.lastReq < retryRounds {
			continue // request outstanding, give the response time to arrive
		}
		m.lastReq = e.round
		req := e.requestTo(n, m.source)
		req.Request = append(req.Request, id)
		selected++
	}
	e.compactMissOrder()
	for _, req := range e.requests {
		e.stats.RequestsSent++
		e.stats.IDsRequested += uint64(len(req.Msg.Request))
		e.out.Queue(req.To, req.Msg)
	}
}

// requestTo returns this round's request message for target, starting
// one (in first-use order, which is the order they are sent in) if there
// is none yet. A round pulls from a handful of advertisers, so a scan
// beats a map.
func (e *Engine) requestTo(n *gossip.Node, target gossip.NodeID) *gossip.Message {
	for _, req := range e.requests {
		if req.To == target {
			return req.Msg
		}
	}
	msg := e.out.Message()
	msg.Kind, msg.From, msg.Round = gossip.KindRecoveryRequest, n.ID(), e.round
	e.requests = append(e.requests, gossip.Outgoing{To: target, Msg: msg})
	return msg
}

// compactMissOrder drops stale order entries once they dominate.
func (e *Engine) compactMissOrder() {
	if len(e.missOrder) < 64 || len(e.missOrder) < 2*len(e.missing) {
		return
	}
	live := e.missOrder[:0]
	for _, id := range e.missOrder {
		if _, ok := e.missing[id]; ok {
			live = append(live, id)
		}
	}
	e.missOrder = live
}

// TakeOutgoing drains the queued control messages (requests and
// responses). Drivers call it after every Tick and Receive and transmit
// the returned messages, which are scratch until the node's next Tick or
// Receive (gossip.Outbox).
func (e *Engine) TakeOutgoing() []gossip.Outgoing { return e.out.Take() }

var _ gossip.Extension = (*Engine)(nil)
