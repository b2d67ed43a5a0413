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
// wire overhead; StoreCapacity, with retainRounds, bounds the repair
// memory.
const (
	DefaultDigestLen     = 128
	DefaultRequestBudget = 64
	DefaultStoreCapacity = 1024
)

// retainRounds is the retransmission store's GC horizon: events
// observed more than this many rounds ago are dropped.
const retainRounds = 30

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
	if p.StoreCapacity < 0 {
		return fmt.Errorf("recovery: store capacity must be non-negative, got %d", p.StoreCapacity)
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
	EventsUnserved    uint64 // requested identifiers not served
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

// missingEntry is the pull state of one id in the missing set, kept in
// the id's ring slot.
type missingEntry struct {
	source     gossip.NodeID // latest advertiser, the pull target
	firstRound uint64        // round the id was last entered
	lastReq    uint64        // round of the last request, 0 = never
	entries    int           // times entered since a compaction last found it dead
	live       bool          // tracked; false once recovered, seen or given up
}

// missingSet is the engine's set of events known to exist but not yet
// delivered, in advertisement order: an IDCache ring of the ids, in the
// order they were first entered, and each id's pull state in a slice
// indexed by its ring slot. Both are made with the engine and never
// grow, so tracking, requesting and settling missing events allocates
// nothing.
//
// An id leaves the set (recovered, delivered by push gossip, given up)
// by going dead in its slot, and one advertised again before the next
// compaction is tracked afresh in that slot, keeping its place in the
// order. A compaction drops the dead slots, rotating the live ones
// round the ring in order; it runs at the end of a round's requests
// once the entries since the last compaction number at least 64 and
// twice the live ids (an id that went dead and was entered again counts
// twice). The ring holds twice maxMissing ids, so it fills only when a
// single round enters more ids than that compaction rule has left room
// for; a full ring compacts before it takes a new id.
type missingSet struct {
	ids     *gossip.IDCache
	state   []missingEntry // by ring slot
	live    int            // ids tracked
	entries int            // sum of state[*].entries over the ring
}

func newMissingSet() (*missingSet, error) {
	ids, err := gossip.NewIDCache(2 * maxMissing)
	if err != nil {
		return nil, err
	}
	return &missingSet{ids: ids, state: make([]missingEntry, 2*maxMissing)}, nil
}

// find returns the slot of id, -1 when the ring does not hold it, and
// whether it is live.
func (s *missingSet) find(id gossip.EventID) (slot int, live bool) {
	slot = s.ids.Slot(id)
	return slot, slot >= 0 && s.state[slot].live
}

// enter tracks id, which is not live, as advertised by from in round:
// in slot when the ring still holds it dead, at the tail otherwise.
func (s *missingSet) enter(id gossip.EventID, slot int, from gossip.NodeID, round uint64) {
	entries := 1
	if slot >= 0 {
		entries += s.state[slot].entries
	} else {
		if s.ids.Len() == s.ids.Capacity() {
			s.compact()
		}
		slot, _ = s.ids.Add(id)
	}
	s.state[slot] = missingEntry{source: from, firstRound: round, entries: entries, live: true}
	s.live++
	s.entries++
}

// drop stops tracking the live id in slot.
func (s *missingSet) drop(slot int) {
	s.state[slot].live = false
	s.live--
}

// slotAt returns the ring slot of the k-th oldest id.
func (s *missingSet) slotAt(k int) int {
	slot := s.ids.Oldest() + k
	if slot >= s.ids.Capacity() {
		slot -= s.ids.Capacity()
	}
	return slot
}

// maybeCompact compacts when the dead entries have come to dominate.
func (s *missingSet) maybeCompact() {
	if s.entries >= 64 && s.entries >= 2*s.live {
		s.compact()
	}
}

// compact drops the dead ids, taking each id off the head of the ring
// and putting it back at the tail if it is live.
func (s *missingSet) compact() {
	s.entries = 0
	for k := s.ids.Len(); k > 0; k-- {
		slot := s.ids.Oldest()
		id, st := s.ids.ID(slot), s.state[slot]
		s.ids.PopOldest()
		s.state[slot] = missingEntry{}
		if st.live {
			to, _ := s.ids.Add(id)
			s.state[to] = st
			s.entries += st.entries
		}
	}
}

// pick is one id chosen for this round's requests, with its target.
type pick struct {
	id  gossip.EventID
	to  gossip.NodeID
	req int // index of the target's message in Engine.requests
}

// Engine is the per-node anti-entropy state machine. It implements
// gossip.Extension (digest piggybacking, digest diffing, store
// maintenance) and queues the control messages drivers must send.
type Engine struct {
	params  Params
	digest  *gossip.IDCache // recently-seen ids, digest source
	store   *store
	missing *missingSet
	round   uint64

	// Scratch, made with the engine at the bounds of what it holds and
	// reused: the digest piggybacked on the round message (valid as long
	// as that message is, see gossip.Node.Tick); the ids picked for this
	// round's requests, the request messages, one per target, and the one
	// array their id lists share; and the events of the response being
	// served. Requests and response are valid until the node's next Tick
	// or Receive, like every queued message (gossip.Outbox).
	digestScratch []gossip.EventID
	picks         []pick
	requests      []gossip.Outgoing
	requested     []gossip.EventID
	served        []gossip.Event

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
	missing, err := newMissingSet()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	// A round requests at most RequestBudget ids, each missing, and a
	// request names at most as many as the requester's budget, which a
	// group shares; a response serves at most as many.
	perRound := min(params.RequestBudget, maxMissing)
	e := &Engine{
		params:        params,
		digest:        digest,
		store:         store,
		missing:       missing,
		digestScratch: make([]gossip.EventID, 0, params.DigestLen),
		picks:         make([]pick, 0, perRound),
		requests:      make([]gossip.Outgoing, 0, min(perRound, outboxReserve)),
		requested:     make([]gossip.EventID, 0, perRound),
		served:        make([]gossip.Event, 0, perRound),
	}
	e.out.Reserve(outboxReserve, nil)
	return e, nil
}

// outboxReserve is the number of messages the engine's outbox is made
// with: the requests of a round that pulls from that many advertisers,
// or one response. A round that needs more grows the outbox once.
const outboxReserve = 8

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// MissingLen reports the number of tracked missing events.
func (e *Engine) MissingLen() int { return e.missing.live }

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
	e.stats.StoreEvicted += uint64(e.store.gc(e.round, retainRounds))
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
			if slot, tracked := e.missing.find(ev.ID); tracked {
				e.missing.drop(slot)
				e.stats.EventsRecovered++
			}
			e.observe(n, ev, in.Borrowed)
		}
	}
}

// OnEvicted retains buffer eviction victims: an event pushed out of the
// events buffer is exactly the kind of event that may still need to be
// served to a peer that lost every push copy.
func (e *Engine) OnEvicted(n *gossip.Node, ev gossip.Event, reason gossip.EvictReason) {
	e.observe(n, ev, false)
}

// diffDigest records advertised ids the node has not seen.
func (e *Engine) diffDigest(n *gossip.Node, from gossip.NodeID, digest []gossip.EventID) {
	for _, id := range digest {
		if n.Seen(id) {
			continue
		}
		slot, live := e.missing.find(id)
		if live {
			e.missing.state[slot].source = from // prefer the freshest advertiser
			continue
		}
		if e.missing.live >= maxMissing {
			e.stats.MissingOverflow++
			continue
		}
		e.missing.enter(id, slot, from, e.round)
	}
}

// serveRequest answers a retransmission request from the store. It
// serves each listed id at most once, and at most as many ids as an
// honest request names, min(RequestBudget, maxMissing), so that a
// request buys a bounded response whatever it lists. The requester is
// the frame's unauthenticated From, so the bound is per request. The
// ids it refuses, like those not in the store, are counted unserved.
func (e *Engine) serveRequest(n *gossip.Node, in *gossip.Message) {
	var resp *gossip.Message
	limit := min(e.params.RequestBudget, maxMissing)
	for i, id := range in.Request {
		if resp != nil && len(resp.Events) == limit {
			e.stats.EventsUnserved += uint64(len(in.Request) - i)
			break
		}
		ev, ok := e.store.get(id)
		if !ok || resp != nil && listed(resp.Events, id) {
			e.stats.EventsUnserved++
			continue
		}
		if resp == nil {
			resp = e.out.Message()
			resp.Kind, resp.From, resp.Round = gossip.KindRecoveryResponse, n.ID(), e.round
			resp.Events = e.served[:0]
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

// listed reports whether events holds id. A response holds at most
// min(RequestBudget, maxMissing) events, so a scan beats a map.
func listed(events []gossip.Event, id gossip.EventID) bool {
	for _, ev := range events {
		if ev.ID == id {
			return true
		}
	}
	return false
}

// buildRequests walks the missing set in advertisement order and queues
// up to RequestBudget identifiers as request messages, batched per
// target peer: one message per target, in the order the targets were
// first picked, each naming its ids in the order they were picked. Ids
// delivered in the meantime are dropped; ids chased longer than
// giveUpRounds are abandoned.
func (e *Engine) buildRequests(n *gossip.Node) {
	s := e.missing
	budget := e.params.RequestBudget
	e.picks = e.picks[:0]
	for k := 0; k < s.ids.Len() && len(e.picks) < budget; k++ {
		slot := s.slotAt(k)
		m := &s.state[slot]
		if !m.live {
			continue
		}
		id := s.ids.ID(slot)
		if n.Seen(id) {
			s.drop(slot) // arrived through normal push gossip
			continue
		}
		if e.round-m.firstRound >= giveUpRounds {
			s.drop(slot)
			e.stats.MissingGaveUp++
			continue
		}
		if m.lastReq != 0 && e.round-m.lastReq < retryRounds {
			continue // request outstanding, give the response time to arrive
		}
		m.lastReq = e.round
		e.picks = append(e.picks, pick{id: id, to: m.source})
	}
	s.maybeCompact()

	e.requests = e.requests[:0]
	for i := range e.picks {
		e.picks[i].req = e.requestTo(n, e.picks[i].to)
	}
	ids := e.requested[:0]
	for r, req := range e.requests {
		from := len(ids)
		for _, p := range e.picks {
			if p.req == r {
				ids = append(ids, p.id)
			}
		}
		req.Msg.Request = ids[from:len(ids):len(ids)]
		e.stats.RequestsSent++
		e.stats.IDsRequested += uint64(len(req.Msg.Request))
		e.out.Queue(req.To, req.Msg)
	}
}

// requestTo returns the index of this round's request message for
// target, starting one if there is none yet. A round pulls from a
// handful of advertisers, so a scan beats a map.
func (e *Engine) requestTo(n *gossip.Node, target gossip.NodeID) int {
	for i, req := range e.requests {
		if req.To == target {
			return i
		}
	}
	msg := e.out.Message()
	msg.Kind, msg.From, msg.Round = gossip.KindRecoveryRequest, n.ID(), e.round
	e.requests = append(e.requests, gossip.Outgoing{To: target, Msg: msg})
	return len(e.requests) - 1
}

// TakeOutgoing drains the queued control messages (requests and
// responses). Drivers call it after every Tick and Receive and transmit
// the returned messages, which are scratch until the node's next Tick or
// Receive (gossip.Outbox).
func (e *Engine) TakeOutgoing() []gossip.Outgoing { return e.out.Take() }

var _ gossip.EvictionObserver = (*Engine)(nil)
