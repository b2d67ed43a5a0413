// Package recovery implements anti-entropy pull repair on top of the
// push-gossip substrate (internal/gossip).
//
// Pure push gossip loses events for good when every copy of a
// transmission window is dropped — the iid-loss and partition scenarios
// internal/sim models. The adaptation mechanism of the paper can only
// slow senders down; it cannot repair. Push-pull hybrids close exactly
// this gap with low overhead (Haeupler, "Simple, Fast and Deterministic
// Gossip and Rumor Spreading"), and the digest is Scuttlebutt's
// reconciliation (van Renesse et al., "Efficient Reconciliation and
// Flow Control for Anti-Entropy Protocols"): each round message carries
// the (origin, highest accepted seq) watermarks of the sender's most
// recently active replay windows (gossip.Node.AppendWatermarks). A
// receiver asks the latest advertiser of each origin for the ids its own
// window lacks under the advertised seq (gossip.Node.AppendUnseen), and
// senders serve them from a bounded, age-GC'd store of the events they
// accepted, which outlives the events buffer.
//
// Recovery keeps no id set of its own: the member's replay windows are
// the record of what it has, and a window's floor, which moves past an
// id once no copy of it can still arrive, is the rule by which a pull
// gives up. The only pull state is the round's list of pulls, one per
// origin.
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

// Defaults for Params. RequestBudget bounds the per-round pull
// traffic; StoreCapacity, with retainRounds, bounds the repair memory.
const (
	DefaultRequestBudget = 64
	DefaultStoreCapacity = 1024
)

// DigestLen is the most watermarks a round message's digest carries:
// those of the sender's DigestLen most recently active replay windows.
const DigestLen = 128

// retainRounds is the retransmission store's GC horizon: events
// accepted more than this many rounds ago are dropped.
const retainRounds = 30

// Params configures the recovery engine. The zero value of every field
// except Enabled means "use the default".
type Params struct {
	// Enabled turns the subsystem on. A disabled engine is never built;
	// the flag exists so configurations can carry recovery settings
	// alongside the protocol's.
	Enabled bool
	// RequestBudget caps the identifiers requested per round across all
	// targets — the pull bandwidth bound.
	RequestBudget int
	// StoreCapacity bounds the retransmission store (events). When
	// full, the oldest stored event is evicted.
	StoreCapacity int
}

// withDefaults fills zero-valued fields.
func (p Params) withDefaults() Params {
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
	EventsRecovered   uint64 // events first accepted from a response
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
	s.StoreEvicted += o.StoreEvicted
}

// store is the bounded retransmission store: the events the member
// accepted, in the order it accepted them, the oldest evicted when full
// or older than the GC horizon. An IDCache keeps the ids and their
// order, and the events and the rounds they were accepted at sit in
// slices indexed by the id's ring slot. An event enters once, when the
// member first accepts it, so the order is also round order.
type store struct {
	ids    *gossip.IDCache
	events []gossip.Event // by ring slot; an empty slot holds no payload
	rounds []uint64       // by ring slot: the round the event was accepted
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
// whether the event was new and whether an entry was evicted. The
// payload is the member's own copy, shared with its buffer.
func (s *store) add(ev gossip.Event, round uint64) (added, evicted bool) {
	full := s.ids.Len() == s.ids.Capacity()
	slot, added := s.ids.Add(ev.ID)
	if !added {
		return false, false
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

// gc drops entries accepted more than retain rounds before now.
func (s *store) gc(now uint64, retain int) (evicted int) {
	for slot := s.ids.Oldest(); slot >= 0 && s.rounds[slot]+uint64(retain) < now; slot = s.ids.Oldest() {
		s.ids.PopOldest()
		s.events[slot] = gossip.Event{}
		evicted++
	}
	return evicted
}

// pull is one origin's entry in the round's pull list: the ids under
// below that the member's window of origin lacks, to be asked of from,
// the latest advertiser of a watermark the member lacks ids under.
type pull struct {
	origin, from gossip.NodeID
	below        uint64
}

// Engine is the per-node anti-entropy state machine. It implements
// gossip.Extension (digest piggybacking and diffing) and
// gossip.DeliveryObserver (the store), and queues the control messages
// drivers must send.
type Engine struct {
	params Params
	store  *store
	round  uint64

	// pulls is the round's pull list, in the order its origins were
	// first advertised, at most one entry per origin and RequestBudget
	// in all: each entry had an id to ask for when it was made.
	pulls []pull

	// Scratch, made with the engine at the bounds of what it holds and
	// reused: the one id a digest entry is checked for; the one array
	// the id lists of a round's requests share; and the events of the
	// response being served. Requests and response are valid until the
	// node's next Tick or Receive, like every queued message
	// (gossip.Outbox).
	probe     []gossip.EventID
	requested []gossip.EventID
	served    []gossip.Event

	out   gossip.Outbox
	stats Stats
}

// NewEngine builds an engine from params (defaults applied).
func NewEngine(params Params) (*Engine, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	store, err := newStore(params.StoreCapacity)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	// A round requests at most RequestBudget ids, and a request names at
	// most as many as the requester's budget, which a group shares; a
	// response serves at most as many.
	budget := params.RequestBudget
	e := &Engine{
		params:    params,
		store:     store,
		pulls:     make([]pull, 0, budget),
		probe:     make([]gossip.EventID, 0, 1),
		requested: make([]gossip.EventID, 0, budget),
		served:    make([]gossip.Event, 0, budget),
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

// OnDeliver stores an event the member accepted for the first time,
// and counts it recovered when it came in a response.
func (e *Engine) OnDeliver(n *gossip.Node, ev gossip.Event, in *gossip.Message) {
	if _, evicted := e.store.add(ev, e.round); evicted {
		e.stats.StoreEvicted++
	}
	if in != nil && in.Kind == gossip.KindRecoveryResponse {
		e.stats.EventsRecovered++
	}
}

// OnTick advances the engine round, GCs the store, piggybacks the
// digest on the outgoing gossip message and queues this round's pull
// requests (subject to RequestBudget).
func (e *Engine) OnTick(n *gossip.Node, out *gossip.Message) {
	e.round++
	e.stats.StoreEvicted += uint64(e.store.gc(e.round, retainRounds))
	if out.Digest = n.AppendWatermarks(out.Digest, DigestLen); len(out.Digest) > 0 {
		e.stats.DigestsSent++
	}
	e.buildRequests(n)
}

// OnReceive handles the three message kinds: gossip (diff the digest),
// requests (queue a response from the store) and responses (counted;
// the node's receive path delivered their new events, and OnDeliver
// stored them).
func (e *Engine) OnReceive(n *gossip.Node, in *gossip.Message) {
	switch in.Kind {
	case gossip.KindGossip:
		if len(in.Digest) > 0 {
			e.stats.DigestsReceived++
			e.diffDigest(n, in.From, in.Digest)
		}
	case gossip.KindRecoveryRequest:
		e.stats.RequestsReceived++
		e.serveRequest(n, in)
	case gossip.KindRecoveryResponse:
		e.stats.ResponsesReceived++
	}
}

// diffDigest enters in the round's pull list each origin of the digest
// whose window lacks an id under the advertised seq, from its latest
// such advertiser; an origin the member has no window of lacks the
// advertised seq's word (AppendUnseen). The member's own origin is
// skipped: it pulls none of its own events. The reads open no window,
// and the list holds at most RequestBudget entries, so a digest grows
// nothing however many entries it names.
func (e *Engine) diffDigest(n *gossip.Node, from gossip.NodeID, digest []gossip.EventID) {
	for _, w := range digest {
		if w.Origin == n.ID() {
			continue
		}
		below := w.Seq + 1
		if below == 0 { // the seq is 2⁶⁴−1: ask under it
			below = w.Seq
		}
		if e.probe = n.AppendUnseen(e.probe[:0], w.Origin, below, 1); len(e.probe) == 0 {
			continue
		}
		i := 0
		for i < len(e.pulls) && e.pulls[i].origin != w.Origin {
			i++
		}
		switch {
		case i < len(e.pulls):
			e.pulls[i].from, e.pulls[i].below = from, below
		case len(e.pulls) < cap(e.pulls):
			e.pulls = append(e.pulls, pull{origin: w.Origin, from: from, below: below})
		}
	}
}

// serveRequest answers a retransmission request from the store. It
// serves each listed id at most once, and at most as many ids as an
// honest request names, RequestBudget, so that a request buys a bounded
// response whatever it lists. The requester is the frame's
// unauthenticated From, so the bound is per request. The ids it
// refuses, like those not in the store, are counted unserved.
func (e *Engine) serveRequest(n *gossip.Node, in *gossip.Message) {
	var resp *gossip.Message
	limit := e.params.RequestBudget
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
// RequestBudget events, so a scan beats a map.
func listed(events []gossip.Event, id gossip.EventID) bool {
	for _, ev := range events {
		if ev.ID == id {
			return true
		}
	}
	return false
}

// buildRequests turns the round's pull list into request messages, up
// to RequestBudget ids in all, and empties the list: one message per
// target, in the order the targets first appear in the list, each
// naming the ids its pulls' windows still lack, pull by pull in list
// order and ascending within a pull. An id that arrived since it was
// advertised, or that the window's floor has passed, is not asked for.
func (e *Engine) buildRequests(n *gossip.Node) {
	budget := e.params.RequestBudget
	ids := e.requested[:0]
	for i, p := range e.pulls {
		if len(ids) == budget {
			break
		}
		if e.targeted(i) {
			continue // an earlier pull's request named this target's ids
		}
		from := len(ids)
		for _, q := range e.pulls[i:] {
			if q.from == p.from {
				ids = n.AppendUnseen(ids, q.origin, q.below, budget-len(ids))
			}
		}
		if len(ids) == from {
			continue
		}
		msg := e.out.Message()
		msg.Kind, msg.From, msg.Round = gossip.KindRecoveryRequest, n.ID(), e.round
		msg.Request = ids[from:len(ids):len(ids)]
		e.stats.RequestsSent++
		e.stats.IDsRequested += uint64(len(msg.Request))
		e.out.Queue(p.from, msg)
	}
	e.pulls = e.pulls[:0]
}

// targeted reports whether a pull before the i-th has its target. A
// round pulls from a handful of advertisers, so a scan beats a map.
func (e *Engine) targeted(i int) bool {
	for _, p := range e.pulls[:i] {
		if p.from == e.pulls[i].from {
			return true
		}
	}
	return false
}

// TakeOutgoing drains the queued control messages (requests and
// responses). Drivers call it after every Tick and Receive and transmit
// the returned messages, which are scratch until the node's next Tick or
// Receive (gossip.Outbox).
func (e *Engine) TakeOutgoing() []gossip.Outgoing { return e.out.Take() }

var _ gossip.DeliveryObserver = (*Engine)(nil)
