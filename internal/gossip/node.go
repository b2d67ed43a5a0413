package gossip

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/observe"
)

// PeerSampler supplies random gossip targets. Implementations include a
// static full-membership registry and an lpbcast-style partial view
// (internal/membership). Node draws each round's targets into one
// scratch slice it reuses across rounds.
type PeerSampler interface {
	// AppendPeers appends up to k distinct peers, excluding self, to dst
	// and returns the extended slice. Fewer than k peers may be appended
	// if the membership is small.
	AppendPeers(dst []NodeID, self NodeID, k int, rng *rand.Rand) []NodeID
}

// PeerAppender is a second name for PeerSampler, for code that names both.
type PeerAppender = PeerSampler

// EvictReason says why events left the buffer.
type EvictReason int

const (
	// EvictCapacity: pushed out by newer events (the overload path the
	// adaptive mechanism observes).
	EvictCapacity EvictReason = iota + 1
	// EvictExpired: age exceeded the purge bound k.
	EvictExpired
	// EvictResize: the local buffer capacity was reduced at runtime.
	EvictResize
)

// String returns a short human-readable reason name.
func (r EvictReason) String() string {
	switch r {
	case EvictCapacity:
		return "capacity"
	case EvictExpired:
		return "expired"
	case EvictResize:
		return "resize"
	default:
		return fmt.Sprintf("EvictReason(%d)", int(r))
	}
}

// Extension observes and augments the protocol without modifying it.
// The adaptive mechanism (internal/core) and partial-view membership
// (internal/membership) are both Extensions.
//
// Hooks run synchronously on the Node's driver; they must not retain the
// passed Message beyond the call.
type Extension interface {
	// OnTick runs while an outgoing gossip message is being built, after
	// ages were advanced and expired events purged. Extensions may set
	// header fields (e.g. the adaptation header) on out.
	OnTick(n *Node, out *Message)
	// OnReceive runs after the events of an incoming message have been
	// stored and their ages updated, per Figure 5(b)'s placement.
	OnReceive(n *Node, in *Message)
}

// EvictionObserver is an Extension told of every event that leaves the
// buffer (the adaptive mechanism is). A Node finds its
// observers among its extensions when it is made.
type EvictionObserver interface {
	Extension
	// OnEvicted reports one event that has left the buffer, and why:
	// an insert's victim right after the insert, a round's expiry and a
	// shrink one call per event, oldest first. The payload is shared
	// and read-only.
	OnEvicted(n *Node, ev Event, reason EvictReason)
}

// DeliveryObserver is an Extension told of every event the node
// accepts for the first time — its own broadcasts and the events it
// delivers from a message — right after delivering it (recovery is).
// A Node finds its delivery observers among its extensions when it is
// made.
type DeliveryObserver interface {
	Extension
	// OnDeliver reports one delivered event and the message it arrived
	// in, nil for the node's own broadcast. The payload is the node's
	// own copy, shared and read-only.
	OnDeliver(n *Node, ev Event, in *Message)
}

// DeliverFunc receives events exactly once each, in arrival order.
// Payloads are shared and read-only (see OwnPayload).
type DeliverFunc func(e Event)

// Outgoing pairs a gossip message with its destination.
type Outgoing struct {
	To  NodeID
	Msg *Message
}

// Machine is the paper's protocol as a driver sees it: an identity and
// the two handlers of Figure 1 (every T: a gossip round; upon receive:
// merge). Both return the messages to transmit; the slices and messages
// may alias scratch that is valid only until the next call. The
// real-time runtime.Runner and the simulator's sim.Network.Drive run
// the same Machine: core.AdaptiveNode or a wrapper.
type Machine interface {
	ID() NodeID
	Tick(now time.Time) []Outgoing
	Receive(msg *Message, now time.Time) []Outgoing
}

// Fanout pairs one read-only message with every destination of a round:
// the shape of Figure 1's emission, where the identical gossip message
// reaches F targets. Transports with an encode-once fast path
// (transport.ManySender) consume it directly.
type Fanout struct {
	Targets []NodeID
	Msg     *Message
}

// AppendGroupOutgoing coalesces consecutive Outgoing entries that share
// one message into Fanouts, preserving order. Tick addresses its round
// message to all fanout targets back to back, so the per-round gossip
// collapses to a single Fanout; subsystem control traffic (recovery
// pulls, failure probes) stays one entry each. Messages are not copied.
// The coalesced fanouts are appended to fans and the flattened target
// list to targets, and both are returned for the caller to retain as
// scratch for the next round (transport.GroupSender does). Each
// Fanout.Targets is a full-capacity subslice of the returned targets,
// so entries stay valid even when a later append grows targets into a
// new array.
func AppendGroupOutgoing(fans []Fanout, targets []NodeID, outs []Outgoing) ([]Fanout, []NodeID) {
	start := 0
	for i := 1; i <= len(outs); i++ {
		if i < len(outs) && outs[i].Msg == outs[start].Msg {
			continue
		}
		first := len(targets)
		for _, o := range outs[start:i] {
			targets = append(targets, o.To)
		}
		fans = append(fans, Fanout{Targets: targets[first:len(targets):len(targets)], Msg: outs[start].Msg})
		start = i
	}
	return fans, targets
}

// NodeStats counts protocol activity since the node was created.
type NodeStats struct {
	Broadcasts        uint64 // events originated locally
	Delivered         uint64 // events delivered (including own)
	Duplicates        uint64 // received events suppressed as duplicates
	MessagesSent      uint64
	MessagesReceived  uint64
	EventsSent        uint64
	EventsReceived    uint64
	DroppedCapacity   uint64 // buffer evictions due to overload
	DroppedExpired    uint64 // age-based purges
	DroppedResize     uint64 // evictions due to capacity reduction
	DroppedAgeSum     uint64 // total age of capacity-dropped events
	RedeliveriesAvoid uint64 // duplicate suppressed though event already left buffer
	DroppedStale      uint64 // received events under their origin's replay floor
}

// AvgDroppedAge is the mean age of capacity-dropped events, the
// congestion signal of paper §2.3. It returns 0 when nothing dropped.
func (s NodeStats) AvgDroppedAge() float64 {
	if s.DroppedCapacity == 0 {
		return 0
	}
	return float64(s.DroppedAgeSum) / float64(s.DroppedCapacity)
}

// Node is the lpbcast state machine of Figure 1.
//
// Node is not safe for concurrent use: a driver (simulator or runtime
// loop) must serialize calls to Broadcast, Tick and Receive.
type Node struct {
	id     NodeID
	params Params
	buf    *Buffer
	seen   *replay
	peers  PeerSampler
	rng    *rand.Rand

	deliver    DeliverFunc
	exts       []Extension
	observers  []EvictionObserver // the exts told of evictions
	delivering []DeliveryObserver // the exts told of deliveries

	round   uint64
	nextSeq uint64
	stats   NodeStats

	// Observability (nil = off, zero overhead beyond one nil check per
	// hot-path call site). metrics holds alloc-free histograms updated
	// inline; tracer observes sampled rumor lifecycles; traceAwait
	// tracks sampled locally-originated events between Broadcast and
	// their first gossip emission (allocated only when tracing).
	metrics    *observe.NodeMetrics
	tracer     observe.Tracer
	traceAwait map[EventID]struct{}

	// arena is the unused tail of the chunk OwnPayload carves payloads
	// from.
	arena []byte

	// Per-round scratch state, reused across Ticks so a steady-state
	// gossip round allocates nothing. Everything Tick returns points
	// into these; see Tick's lifetime contract.
	scratchMsg     Message
	scratchEvents  []Event
	scratchTargets []NodeID
	scratchOut     []Outgoing
}

// Option configures a Node.
type Option func(*Node)

// WithDeliver sets the local delivery callback.
func WithDeliver(fn DeliverFunc) Option {
	return func(n *Node) { n.deliver = fn }
}

// WithExtensions appends protocol extensions, invoked in order.
func WithExtensions(exts ...Extension) Option {
	return func(n *Node) { n.exts = append(n.exts, exts...) }
}

// WithMetrics installs the alloc-free instrumentation block the node
// updates in its hot path: delivery-hop, drop-age and round-size
// histograms. The same block may be shared by several nodes (their
// observations pool). nil leaves instrumentation off.
func WithMetrics(m *observe.NodeMetrics) Option {
	return func(n *Node) { n.metrics = m }
}

// WithTracer installs a sampling rumor-lifecycle tracer. The node
// reports publish, first-send, receive, deliver and drop transitions
// of sampled events with their hop count (age) at each transition. nil
// (the default) is the zero-overhead path, and unsampled events cost
// one hash per touch.
func WithTracer(tr observe.Tracer) Option {
	return func(n *Node) { n.tracer = tr }
}

// NewNode creates a node. peers supplies gossip targets and rng drives
// all protocol randomness (inject a seeded generator for determinism).
func NewNode(id NodeID, params Params, peers PeerSampler, rng *rand.Rand, opts ...Option) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("gossip: node id must not be empty")
	}
	if peers == nil {
		return nil, fmt.Errorf("gossip: node %s: peer sampler must not be nil", id)
	}
	if rng == nil {
		return nil, fmt.Errorf("gossip: node %s: rng must not be nil", id)
	}
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("gossip: node %s: invalid params: %w", id, err)
	}
	seed := maphash.MakeSeed()
	buf, err := newBuffer(params.MaxEvents, params.MaxAge, seed)
	if err != nil {
		return nil, fmt.Errorf("gossip: node %s: %w", id, err)
	}
	n := &Node{
		id:            id,
		params:        params,
		buf:           buf,
		seen:          newReplay(params.MaxEventIDs, params.MaxAge),
		peers:         peers,
		rng:           rng,
		scratchEvents: make([]Event, 0, params.MaxEvents),
	}
	for _, opt := range opts {
		opt(n)
	}
	for _, ext := range n.exts {
		if o, ok := ext.(EvictionObserver); ok {
			n.observers = append(n.observers, o)
		}
		if o, ok := ext.(DeliveryObserver); ok {
			n.delivering = append(n.delivering, o)
		}
	}
	if n.tracer != nil {
		n.traceAwait = make(map[EventID]struct{})
	}
	return n, nil
}

// ID returns the node identifier.
func (n *Node) ID() NodeID { return n.id }

// Params returns the node's protocol parameters.
func (n *Node) Params() Params { return n.params }

// Round returns the number of completed gossip rounds.
func (n *Node) Round() uint64 { return n.round }

// Stats returns a copy of the activity counters.
func (n *Node) Stats() NodeStats { return n.stats }

// AppendWatermarks appends to dst the (origin, highest accepted seq) of
// at most k of the node's replay windows, the most recently active
// first: what the recovery digest advertises.
func (n *Node) AppendWatermarks(dst []EventID, k int) []EventID {
	return n.seen.appendWatermarks(dst, k)
}

// AppendUnseen appends to dst, ascending, at most k ids of origin with
// a seq under below that its replay window has neither accepted nor
// moved its floor past, from the window's first word (64 seqs) up: the
// ids a member pulls from a peer whose digest names origin at below-1.
// An origin without a window is taken as one opened at below-1, which
// lacks the ids of that word under below: a member that never heard an
// origin pulls its newest word. It only reads: a digest opens no
// window.
func (n *Node) AppendUnseen(dst []EventID, origin NodeID, below uint64, k int) []EventID {
	return n.seen.appendUnseen(dst, origin, originHash(n.buf.seed, origin), below, k)
}

// BufferLen reports the current number of buffered events.
func (n *Node) BufferLen() int { return n.buf.Len() }

// BufferCapacity reports the local events buffer bound |events|max.
func (n *Node) BufferCapacity() int { return n.buf.Capacity() }

// Buffered returns the event as the buffer holds it — the node's own
// copy of the payload, read-only — and whether it is buffered.
func (n *Node) Buffered(id EventID) (Event, bool) { return n.buf.Get(id) }

// AppendOldestUncounted exposes the buffer scan used by the congestion
// estimator; see Buffer.AppendOldestUncounted.
func (n *Node) AppendOldestUncounted(dst []Event, limit int, counted func(EventID) bool) []Event {
	return n.buf.AppendOldestUncounted(dst, limit, counted)
}

// SetBufferCapacity changes |events|max at runtime — the dynamic
// resource scenario of paper §4. Evicted events are reported to
// eviction observers with EvictResize.
func (n *Node) SetBufferCapacity(capacity int) error {
	if err := n.buf.SetCapacity(capacity); err != nil {
		return fmt.Errorf("gossip: node %s: %w", n.id, err)
	}
	for ev, ok := n.buf.DropOverflow(); ok; ev, ok = n.buf.DropOverflow() {
		n.stats.DroppedResize++
		n.notifyEvicted(ev, EvictResize)
	}
	return nil
}

// Broadcast originates a new event with the given payload: the event is
// delivered locally, recorded in eventIds and buffered for gossiping
// (the buffering half of Figure 3; rate admission is the caller's
// concern, see core.Adaptor).
//
// The payload is retained and must not be modified afterwards.
func (n *Node) Broadcast(payload []byte) Event {
	ev := Event{
		ID:      EventID{Origin: n.id, Seq: n.nextSeq},
		Age:     0,
		Payload: payload,
	}
	n.nextSeq++
	n.stats.Broadcasts++
	n.seen.add(ev.ID, originHash(n.buf.seed, n.id), uint32(n.round), true)
	if n.tracer != nil && n.tracer.Sampled(string(ev.ID.Origin), ev.ID.Seq) {
		n.tracer.Trace(observe.TraceEvent{
			Origin: string(ev.ID.Origin), Seq: ev.ID.Seq,
			Stage: observe.StagePublish, Node: string(n.id), Round: n.round,
		})
		n.traceAwait[ev.ID] = struct{}{}
	}
	n.deliverLocal(ev, nil)
	victim, evicted, err := n.buf.Add(ev)
	if err != nil {
		// The member restarted under its old id and got its events back.
		panic(err)
	}
	n.dropped(victim, evicted)
	return ev
}

// Tick runs one gossip round (Figure 1's "every T ms" block): ages
// advance, expired events are purged, and the buffer contents are
// addressed to Fanout random peers. The returned messages share one
// Message value; drivers deliver them without mutation.
//
// Lifetime contract: the slice returned by Tick, the Message all its
// entries share, and every slice reachable from that Message are
// scratch state owned by the node, valid only until the next Tick on
// the same node. Drivers must finish delivering (or copy, see
// Message.Clone) before then. The built-in fabrics honor this: the
// simulator delivers within the sending round whenever network latency
// is below the gossip period (sim.Network.Drive copies otherwise), and
// the UDP transport encodes synchronously.
//
// The driver is responsible for calling Tick every Period.
func (n *Node) Tick() []Outgoing {
	n.round++
	n.buf.IncrementAges()
	n.dropExpired()

	// Rebuild the round message in place: scalar fields reset, the
	// events snapshot and the extension-appended piggyback slices reuse
	// last round's backing arrays.
	n.scratchEvents = n.buf.AppendSnapshot(n.scratchEvents[:0])
	msg := &n.scratchMsg
	*msg = Message{
		From:    n.id,
		Round:   n.round,
		Traced:  n.tracer != nil,
		Events:  n.scratchEvents,
		Subs:    msg.Subs[:0],
		Digest:  msg.Digest[:0],
		Updates: msg.Updates[:0],
		Health:  msg.Health[:0],
	}
	for _, ext := range n.exts {
		ext.OnTick(n, msg)
	}

	n.scratchTargets = n.peers.AppendPeers(n.scratchTargets[:0], n.id, n.params.Fanout, n.rng)
	if len(n.scratchTargets) == 0 {
		return nil
	}
	out := n.scratchOut[:0]
	for _, t := range n.scratchTargets {
		if t == n.id {
			continue
		}
		out = append(out, Outgoing{To: t, Msg: msg})
	}
	n.scratchOut = out
	n.stats.MessagesSent += uint64(len(out))
	n.stats.EventsSent += uint64(len(out) * len(msg.Events))
	if n.metrics != nil {
		n.metrics.RoundEvents.Observe(uint64(len(msg.Events)))
	}
	if n.tracer != nil && len(n.traceAwait) > 0 && len(out) > 0 {
		n.traceFirstSends(msg)
	}
	return out
}

// Resume accounts for rounds the node missed while it was stopped, as
// a crashed member that restarts: the round count and the
// age of every buffered event advance by rounds, and what passes
// MaxAge is purged, as rounds without an emission would have done. So
// ages keep pace with time across the stop, which the replay windows'
// horizon relies on: a restarted member gossips no copy that peers
// already forgot.
func (n *Node) Resume(rounds int) {
	n.round += uint64(rounds)
	for range min(rounds, n.params.MaxAge+1) {
		n.buf.IncrementAges()
	}
	n.dropExpired()
}

// dropExpired purges the events past MaxAge, reporting each.
func (n *Node) dropExpired() {
	for ev, ok := n.buf.DropExpired(); ok; ev, ok = n.buf.DropExpired() {
		n.stats.DroppedExpired++
		n.notifyEvicted(ev, EvictExpired)
	}
}

// traceFirstSends reports the first gossip emission of sampled
// locally-originated events. Called only when tracing is on and at
// least one sampled event awaits its first send, so the hot path pays
// one map-length check per round.
func (n *Node) traceFirstSends(msg *Message) {
	for _, ev := range msg.Events {
		if _, ok := n.traceAwait[ev.ID]; !ok {
			continue
		}
		delete(n.traceAwait, ev.ID)
		n.tracer.Trace(observe.TraceEvent{
			Origin: string(ev.ID.Origin), Seq: ev.ID.Seq,
			Stage: observe.StageFirstSend, Node: string(n.id),
			Hop: ev.Hop, Round: n.round,
		})
	}
}

// Receive processes an incoming gossip message: new events are delivered
// and buffered, duplicate copies raise stored ages to the maximum seen,
// and extensions observe the message afterwards (Figure 1 receive block
// plus the Figure 5 additions). The message is only read, and nothing
// of it is retained past the call except event payloads — copied first
// (OwnPayload) when the message is Borrowed.
//
// Each origin is hashed once: the buffer finds an id by the id hash
// derived from it, eventIds its origin's replay window by the hash
// itself. The buffer answers first — a buffered event is a duplicate
// even if eventIds forgot it — and eventIds only for an id the buffer
// lacks: an id it accepted before is a duplicate, and an id under its
// origin's floor is refused and counted in DroppedStale. Only a gossip
// message's events can reset an idle window (a restarted origin):
// recovery responses carry copies from stores that outlive the
// horizon.
func (n *Node) Receive(msg *Message) {
	n.stats.MessagesReceived++
	n.stats.EventsReceived += uint64(len(msg.Events))
	pushed := msg.Kind == KindGossip
	for _, ev := range msg.Events {
		// ev is a value copy: adjust its hop count for this arrival.
		// Senders propagating trace context carry exact hop
		// counts — one more traversal landed the copy here; otherwise
		// fall back to the age approximation.
		if msg.Traced {
			ev.Hop++
		} else {
			ev.Hop = ev.Age
		}
		oh := originHash(n.buf.seed, ev.ID.Origin)
		h := idHash(oh, ev.ID.Seq)
		if slot := n.buf.find(ev.ID, h); slot >= 0 {
			n.stats.Duplicates++
			n.buf.raiseAt(slot, ev.Age)
			continue
		}
		if v := n.seen.add(ev.ID, oh, uint32(n.round), pushed); v != idNew {
			if v == idSeen {
				n.stats.Duplicates++
				n.stats.RedeliveriesAvoid++
			} else {
				n.stats.DroppedStale++
			}
			continue
		}
		if msg.Borrowed {
			// First sight of the event: take the payload out of the
			// transport's receive buffer before anything retains it. The
			// duplicates above — most of what gossip receives — never
			// get here. The buffer, the recovery store and every
			// subscriber share this one copy.
			ev.Payload = n.OwnPayload(ev.Payload)
		}
		if n.tracer != nil && n.tracer.Sampled(string(ev.ID.Origin), ev.ID.Seq) {
			n.tracer.Trace(observe.TraceEvent{
				Origin: string(ev.ID.Origin), Seq: ev.ID.Seq,
				Stage: observe.StageReceive, Node: string(n.id),
				From: string(msg.From), Hop: ev.Hop, Round: n.round,
			})
			n.deliverLocal(ev, msg)
			n.dropped(n.buf.put(ev, h))
			n.tracer.Trace(observe.TraceEvent{
				Origin: string(ev.ID.Origin), Seq: ev.ID.Seq,
				Stage: observe.StageDeliver, Node: string(n.id),
				From: string(msg.From), Hop: ev.Hop, Round: n.round,
			})
			continue
		}
		n.deliverLocal(ev, msg)
		n.dropped(n.buf.put(ev, h))
	}
	for _, ext := range n.exts {
		ext.OnReceive(n, msg)
	}
}

// Payload arena sizes. A chunk holds the copies of many small payloads
// back to back, so copying a first-sight payload costs an allocation
// per chunk, not per event; a payload larger than arenaMaxCarve keeps an
// allocation of its own, which bounds a chunk's wasted tail to under
// an eighth of it.
const (
	arenaChunk    = 4096
	arenaMaxCarve = arenaChunk / 8
)

// OwnPayload returns a copy of p that the node owns: p is a borrowed
// payload (Message.Borrowed) about to be retained. The copy is
// read-only and shared by everything that retains the event. Its
// capacity equals its length, so an append by a holder reallocates
// rather than writing over the bytes carved after it.
//
// Small payloads are carved from a per-node chunk of arenaChunk bytes,
// and a chunk stays live while any payload carved from it is
// referenced: each payload a member retains pins at most one chunk.
// Payloads larger than arenaMaxCarve are copied into an allocation of
// their own. A nil p stays nil.
func (n *Node) OwnPayload(p []byte) []byte {
	if p == nil {
		return nil
	}
	if len(p) == 0 || len(p) > arenaMaxCarve {
		c := make([]byte, len(p))
		copy(c, p)
		return c
	}
	if len(p) > len(n.arena) {
		n.arena = make([]byte, arenaChunk)
	}
	c := n.arena[:len(p):len(p)]
	n.arena = n.arena[len(p):]
	copy(c, p)
	return c
}

// deliverLocal delivers ev, which arrived in msg (nil for a broadcast),
// and tells the delivery observers.
func (n *Node) deliverLocal(ev Event, msg *Message) {
	n.stats.Delivered++
	if n.metrics != nil {
		// ev.Hop equals ev.Age unless the sender carried wire trace
		// context, so the histogram's semantics only sharpen (never
		// shift) when tracing is enabled cluster-wide.
		n.metrics.DeliverHops.ObserveInt(int64(ev.Hop))
	}
	if n.deliver != nil {
		n.deliver(ev)
	}
	for _, o := range n.delivering {
		o.OnDeliver(n, ev, msg)
	}
}

// dropped accounts for the event an insert pushed out of the buffer, if
// it evicted one.
func (n *Node) dropped(ev Event, evicted bool) {
	if !evicted {
		return
	}
	n.stats.DroppedCapacity++
	n.stats.DroppedAgeSum += uint64(ev.Age)
	n.notifyEvicted(ev, EvictCapacity)
}

func (n *Node) notifyEvicted(ev Event, reason EvictReason) {
	if n.metrics != nil && reason == EvictCapacity {
		n.metrics.DropAge.ObserveInt(int64(ev.Age))
	}
	if n.tracer != nil {
		delete(n.traceAwait, ev.ID)
		if n.tracer.Sampled(string(ev.ID.Origin), ev.ID.Seq) {
			n.tracer.Trace(observe.TraceEvent{
				Origin: string(ev.ID.Origin), Seq: ev.ID.Seq,
				Stage: observe.StageDrop, Node: string(n.id),
				Hop: ev.Hop, Round: n.round, Reason: reason.String(),
			})
		}
	}
	for _, o := range n.observers {
		o.OnEvicted(n, ev, reason)
	}
}
