// Package failure implements SWIM-style failure detection on top of
// the push-gossip substrate (internal/gossip).
//
// The paper's adaptive broadcast assumes views converge to live
// members, but nothing in lpbcast ever removes a crashed node: it
// lingers in every registry and partial view, silently wasting fanout
// and skewing the adaptation signal. The detector closes that gap with
// the SWIM protocol (Das, Gupta, Motivala, "SWIM: Scalable
// Weakly-consistent Infection-style Process Group Membership", DSN
// 2002), adapted to this repository's round-driven extension model:
//
//   - Each gossip round (OnTick) the engine probes one random view
//     member with a ping and expects an ack within probeTimeoutRounds.
//   - On timeout it asks indirectProbes random proxies to probe the
//     target on its behalf (ping-req), covering path asymmetry.
//   - If the indirect phase also times out, the target becomes
//     *suspect*; after SuspicionTimeoutRounds unrefuted, the suspicion
//     hardens into a *confirm* and the eviction callback fires.
//   - Status transitions (alive/suspect/confirm) are disseminated as
//     MemberUpdate rumors piggybacked on outgoing gossip and probes (at
//     most updatesPerMessage a message, each riding updateTransmits
//     messages), so detection costs O(1) extra messages per node per
//     period.
//   - A node that learns it is suspected refutes by incrementing its
//     incarnation and gossiping a fresh alive update; alive updates
//     override suspicion only with a strictly higher incarnation.
//
// Two pragmatic guards temper SWIM's rumor mill for this codebase's
// traffic pattern (every node receives Fanout gossip messages per
// round, so direct evidence of liveness is plentiful):
//
//   - Any message received from a node is proof of life: it cancels
//     outstanding probes and locally clears suspicion.
//   - Suspect/confirm rumors about a node heard from within
//     freshnessRounds are ignored — a peer we are actively exchanging
//     gossip with is not dead, whatever a stale rumor says.
//
// The Engine is a gossip.Extension plus a queue of outgoing control
// messages, exactly like recovery.Engine: drivers drain TakeOutgoing
// after every Tick and Receive and transmit the returned messages. The
// engine is single-threaded (the owning driver serializes all calls)
// and all iteration is in deterministic order so simulation runs stay
// reproducible under a seeded RNG.
package failure

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// The detector's constants, in gossip rounds where they are times.
// With the paper's 5-second period a crash is typically suspected
// within 2–3 rounds and confirmed within probeTimeoutRounds +
// indirectTimeoutRounds + SuspicionTimeoutRounds ≈ 8 rounds (40 s).
const (
	// probeTimeoutRounds is how long to wait for the direct ack before
	// falling back to indirect probes.
	probeTimeoutRounds = 1
	// indirectTimeoutRounds is how long the indirect phase may run
	// before the target becomes suspect.
	indirectTimeoutRounds = 2
	// indirectProbes is k, the number of proxies asked to ping the
	// target when the direct probe times out.
	indirectProbes = 3
	// freshnessRounds guards against stale rumors: suspect/confirm
	// updates about a node heard from within this many rounds are
	// ignored.
	freshnessRounds = 2
	// updatesPerMessage bounds the piggybacked rumors per outgoing
	// message.
	updatesPerMessage = 8
	// updateTransmits is how many outgoing messages each queued rumor
	// rides before it is dropped (SWIM's retransmission multiplier).
	updateTransmits = 6
	// maxMembers bounds the per-node member-state table.
	maxMembers = 4096
	// maxRelays bounds the live relays, and with them the pings they
	// queue: a ping-req that finds maxRelays live is refused. The most
	// an honest member held was 13 (the churn figure at full scale; 10
	// with -fast, 3 on gossipbench's udp_full). The mean is at most
	// 12, indirectProbes ping-reqs a round over a 4-round lifetime, when
	// every probe in the group goes indirect.
	maxRelays = 64
)

// The working sizes the engine's lists are made with, so that a member
// whose detector has seen nothing unusual allocates nothing for them.
// A burst beyond one grows that list once, to the burst's size.
const (
	// probeReserve covers the outstanding probes: one a round, each
	// resolved within probeTimeoutRounds + indirectTimeoutRounds.
	probeReserve = probeTimeoutRounds + indirectTimeoutRounds + 1
	// sendReserve covers the messages of one drain: a round's ping and
	// the ping-reqs of the probes going indirect, or one reply.
	sendReserve = 1 + 2*indirectProbes
	// relayReserve covers the ping-reqs relayed within a relay's
	// lifetime, and rumorReserve the rumors in flight at once.
	relayReserve = 4 * indirectProbes
	rumorReserve = 2 * updatesPerMessage
)

// DefaultSuspicionTimeoutRounds is SuspicionTimeoutRounds' default.
const DefaultSuspicionTimeoutRounds = 5

// Params configures the failure detector.
type Params struct {
	// Enabled turns the subsystem on. A disabled engine is never built;
	// the flag exists so configurations can carry detector settings
	// alongside the protocol's.
	Enabled bool
	// SuspicionTimeoutRounds is how long a suspect may refute before
	// the suspicion hardens into a confirm, in gossip rounds. Zero means
	// DefaultSuspicionTimeoutRounds.
	SuspicionTimeoutRounds int
}

// Validate reports the first configuration error.
func (p Params) Validate() error {
	if p.SuspicionTimeoutRounds < 0 {
		return fmt.Errorf("failure: suspicion timeout must be non-negative, got %d rounds", p.SuspicionTimeoutRounds)
	}
	return nil
}

// Stats counts detector activity since the engine was created.
type Stats struct {
	ProbesSent       uint64 // direct pings launched
	AcksReceived     uint64 // acks received (direct and relayed)
	AcksSent         uint64 // pings answered
	PingReqsSent     uint64 // indirect probe requests emitted
	PingReqsReceived uint64 // indirect probe requests handled
	PingReqsRefused  uint64 // indirect probe requests refused at maxRelays
	ProbesRelayed    uint64 // pings sent on another node's behalf
	AcksRelayed      uint64 // acks forwarded back to the requester
	Suspects         uint64 // local suspicions raised (probe timeouts)
	Confirms         uint64 // suspicions hardened into confirms
	Refutations      uint64 // own-suspicion refutations (incarnation bumps)
	Revivals         uint64 // suspect/confirmed peers seen alive again —
	// the node's locally observable false positives
	UpdatesSent     uint64 // rumors piggybacked on outgoing messages
	UpdatesReceived uint64 // rumors received
	UpdatesIgnored  uint64 // rumors dropped (stale incarnation or freshness guard)
}

// Add folds o's counters into s: a group's or a seed sweep's totals.
func (s *Stats) Add(o Stats) {
	s.ProbesSent += o.ProbesSent
	s.AcksReceived += o.AcksReceived
	s.AcksSent += o.AcksSent
	s.PingReqsSent += o.PingReqsSent
	s.PingReqsReceived += o.PingReqsReceived
	s.PingReqsRefused += o.PingReqsRefused
	s.ProbesRelayed += o.ProbesRelayed
	s.AcksRelayed += o.AcksRelayed
	s.Suspects += o.Suspects
	s.Confirms += o.Confirms
	s.Refutations += o.Refutations
	s.Revivals += o.Revivals
	s.UpdatesSent += o.UpdatesSent
	s.UpdatesReceived += o.UpdatesReceived
	s.UpdatesIgnored += o.UpdatesIgnored
}

// memberState is the detector's opinion of one remote member.
type memberState struct {
	status      gossip.MemberStatus
	incarnation uint64
	lastHeard   uint64 // round a message from the member last arrived
	suspectedAt uint64 // round the member became suspect
}

// probeState tracks one outstanding probe.
type probeState struct {
	target     gossip.NodeID
	seq        uint64
	sentAt     uint64
	sentWall   time.Time // wall-clock launch time; zero unless RTT harvesting is on
	indirect   bool      // indirect phase entered
	indirectAt uint64    // round the ping-reqs went out
	done       bool      // acked or resolved; swept on the next tick
}

// relayEntry remembers a ping sent on another node's behalf, so the
// subject's ack can be forwarded back to the original requester.
type relayEntry struct {
	subject   gossip.NodeID
	seq       uint64
	requester gossip.NodeID
	round     uint64
}

// update is a queued rumor with its remaining transmission budget.
type update struct {
	u         gossip.MemberUpdate
	transmits int
}

// OnChangeFunc observes membership-status transitions the detector
// decides or learns: MemberSuspect when suspicion is raised,
// MemberConfirmed when a member is declared crashed (drivers evict it
// from registries and partial views here), and MemberAlive when a
// suspected or confirmed member proves to be alive after all (drivers
// re-admit it). The callback runs synchronously on the driver's thread.
type OnChangeFunc func(id gossip.NodeID, status gossip.MemberStatus)

// Engine is the per-node SWIM state machine. It implements
// gossip.Extension (probing and rumor piggybacking from OnTick, probe
// handling and rumor application from OnReceive) and queues the probe
// messages drivers must send.
type Engine struct {
	self gossip.NodeID
	// suspicionTimeout is Params.SuspicionTimeoutRounds, defaulted.
	suspicionTimeout uint64
	peers            gossip.PeerSampler
	// candidates is the scratch peers samples into, so a probe samples
	// without allocating.
	candidates []gossip.NodeID
	rng        *rand.Rand

	onChange OnChangeFunc

	round       uint64
	incarnation uint64
	nextSeq     uint64

	members map[gossip.NodeID]*memberState
	// suspectOrder holds suspects in suspicion order for the
	// deterministic confirm sweep; entries may be stale.
	suspectOrder []gossip.NodeID

	probes     map[gossip.NodeID]*probeState
	probeOrder []*probeState // insertion order for deterministic sweeps
	freeProbes []*probeState // swept out of probeOrder, for launchProbe to reuse

	relays []relayEntry

	// links receives ping→ack round-trip observations per peer; nil
	// (the default) keeps probes wall-clock-free so simulations stay
	// deterministic. now is consulted only when links is set.
	links *observe.PeerTable
	now   func() time.Time

	queue []update
	out   gossip.Outbox
	stats Stats
}

// NewEngine builds a detector for the node self, sampling probe targets
// from peers with randomness from rng (inject a seeded generator for
// deterministic simulation).
func NewEngine(self gossip.NodeID, params Params, peers gossip.PeerSampler, rng *rand.Rand) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	timeout := params.SuspicionTimeoutRounds
	if timeout == 0 {
		timeout = DefaultSuspicionTimeoutRounds
	}
	if self == "" {
		return nil, fmt.Errorf("failure: self id must not be empty")
	}
	if peers == nil {
		return nil, fmt.Errorf("failure: peer sampler must not be nil")
	}
	if rng == nil {
		return nil, fmt.Errorf("failure: rng must not be nil")
	}
	e := &Engine{
		self:             self,
		suspicionTimeout: uint64(timeout),
		peers:            peers,
		candidates:       make([]gossip.NodeID, 0, indirectProbes+1),
		rng:              rng,
		now:              time.Now,
		members:          make(map[gossip.NodeID]*memberState),
		suspectOrder:     make([]gossip.NodeID, 0, rumorReserve),
		probes:           make(map[gossip.NodeID]*probeState),
		probeOrder:       make([]*probeState, 0, probeReserve),
		freeProbes:       make([]*probeState, 0, probeReserve),
		relays:           make([]relayEntry, 0, relayReserve),
		queue:            make([]update, 0, rumorReserve),
	}
	for range probeReserve {
		e.freeProbes = append(e.freeProbes, new(probeState))
	}
	e.out.Reserve(sendReserve, func(m *gossip.Message) {
		m.Updates = make([]gossip.MemberUpdate, 0, updatesPerMessage)
	})
	return e, nil
}

// SetOnChange installs the membership-transition callback.
func (e *Engine) SetOnChange(fn OnChangeFunc) { e.onChange = fn }

// SetLinks turns on per-peer RTT harvesting: each direct ping→ack
// round trip is observed into the target's RTTMicros histogram in the
// table. The detector's probes double as the cluster's latency sensors
// — no extra traffic. nil disables harvesting (the default; probes
// then never read the wall clock, keeping simulations deterministic).
func (e *Engine) SetLinks(t *observe.PeerTable) { e.links = t }

// SetClock overrides the wall-clock source used for RTT measurement
// (tests). The clock is only read while links are installed.
func (e *Engine) SetClock(fn func() time.Time) {
	if fn != nil {
		e.now = fn
	}
}

// Stats returns a copy of the activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Incarnation returns the node's own incarnation number.
func (e *Engine) Incarnation() uint64 { return e.incarnation }

// Status reports the detector's current opinion of a member
// (MemberAlive for unknown members).
func (e *Engine) Status(id gossip.NodeID) gossip.MemberStatus {
	if st, ok := e.members[id]; ok {
		return st.status
	}
	return gossip.MemberAlive
}

// Rejoin resets the detector to a freshly-restarted process: all remote
// opinions and outstanding probes are dropped, the incarnation is
// bumped past anything the group may have gossiped about the old
// process, and an alive announcement is queued so the group re-admits
// the node quickly.
func (e *Engine) Rejoin() {
	e.members = make(map[gossip.NodeID]*memberState)
	e.suspectOrder = e.suspectOrder[:0]
	e.probes = make(map[gossip.NodeID]*probeState)
	e.freeProbes = append(e.freeProbes, e.probeOrder...)
	e.probeOrder = e.probeOrder[:0]
	e.relays = e.relays[:0]
	e.queue = e.queue[:0]
	e.out.Take() // what the old process queued is not sent
	e.incarnation++
	e.queueUpdate(gossip.MemberUpdate{Node: e.self, Status: gossip.MemberAlive, Incarnation: e.incarnation})
}

// OnTick advances the detector round: relay and probe bookkeeping, the
// suspect→confirm sweep, this round's new probe, and rumor piggybacking
// on the outgoing gossip message.
func (e *Engine) OnTick(n *gossip.Node, out *gossip.Message) {
	e.round++
	e.expireRelays()
	e.sweepProbes()
	e.sweepSuspects()
	e.launchProbe()
	e.attachUpdates(out)
}

// OnReceive handles probe traffic and applies piggybacked rumors. Any
// message is proof of life for its sender.
func (e *Engine) OnReceive(n *gossip.Node, in *gossip.Message) {
	// RTT must be captured before heardFrom resolves (and deletes) the
	// probe the ack answers. Only the direct phase measures: a relayed
	// ack's path (requester→proxy→subject→proxy→requester) is not the
	// link round trip.
	if in.Kind == gossip.KindPingAck && e.links != nil && in.From != "" {
		if p, ok := e.probes[in.From]; ok && !p.done && !p.indirect &&
			p.seq == in.ProbeSeq && !p.sentWall.IsZero() {
			if ps := e.links.Get(string(in.From)); ps != nil {
				ps.RTTMicros.ObserveInt(e.now().Sub(p.sentWall).Microseconds())
			}
		}
	}
	if in.From != "" && in.From != e.self {
		e.heardFrom(in.From)
	}
	switch in.Kind {
	case gossip.KindPing:
		e.stats.AcksSent++
		e.send(in.From, gossip.KindPingAck, in.Probe, in.ProbeSeq)
	case gossip.KindPingAck:
		e.stats.AcksReceived++
		if in.Probe != "" && in.Probe != e.self {
			// Relayed ack: the proxy vouches for the subject.
			e.heardFrom(in.Probe)
		}
		e.forwardRelayedAck(in)
	case gossip.KindPingReq:
		e.stats.PingReqsReceived++
		e.handlePingReq(in)
	}
	for _, u := range in.Updates {
		e.applyUpdate(u)
	}
}

// TakeOutgoing drains the queued probe messages (pings, acks and
// ping-reqs). Drivers call it after every Tick and Receive and transmit
// the returned messages, which are scratch until the node's next Tick or
// Receive (gossip.Outbox).
func (e *Engine) TakeOutgoing() []gossip.Outgoing { return e.out.Take() }

// send queues one control message, piggybacking rumors on probe kinds
// (not acks: acks are the latency-critical reply path).
func (e *Engine) send(to gossip.NodeID, kind gossip.MessageKind, probe gossip.NodeID, seq uint64) {
	if to == "" || to == e.self {
		return
	}
	msg := e.out.Message()
	msg.Kind, msg.From, msg.Round, msg.Probe, msg.ProbeSeq = kind, e.self, e.round, probe, seq
	if kind == gossip.KindPing || kind == gossip.KindPingReq {
		e.attachUpdates(msg)
	}
	e.out.Queue(to, msg)
}

// sample draws up to k peers into the engine's scratch.
func (e *Engine) sample(k int) []gossip.NodeID {
	e.candidates = e.peers.AppendPeers(e.candidates[:0], e.self, k, e.rng)
	return e.candidates
}

// state returns the member entry, creating an alive one when within the
// table bound.
func (e *Engine) state(id gossip.NodeID) *memberState {
	if st, ok := e.members[id]; ok {
		return st
	}
	if len(e.members) >= maxMembers {
		return nil
	}
	st := &memberState{status: gossip.MemberAlive}
	e.members[id] = st
	return st
}

// heardFrom records direct proof of life: the probe (if any) resolves
// and local suspicion clears. No rumor is queued — only the subject
// itself may refute with a higher incarnation; this is local evidence.
func (e *Engine) heardFrom(id gossip.NodeID) {
	if p, ok := e.probes[id]; ok && !p.done {
		p.done = true
		delete(e.probes, id)
	}
	st := e.state(id)
	if st == nil {
		return
	}
	st.lastHeard = e.round
	if st.status != gossip.MemberAlive {
		st.status = gossip.MemberAlive
		e.stats.Revivals++
		e.notify(id, gossip.MemberAlive)
	}
}

// launchProbe picks a random member and pings it. Members with an
// outstanding probe or a confirmed state are skipped.
func (e *Engine) launchProbe() {
	// Draw a few candidates so an unlucky sample (already probed,
	// already confirmed) does not waste the round.
	for _, target := range e.sample(3) {
		if target == e.self {
			continue
		}
		if _, outstanding := e.probes[target]; outstanding {
			continue
		}
		if st, ok := e.members[target]; ok && st.status == gossip.MemberConfirmed {
			continue
		}
		e.nextSeq++
		var p *probeState
		if last := len(e.freeProbes) - 1; last >= 0 {
			p, e.freeProbes = e.freeProbes[last], e.freeProbes[:last]
		} else {
			p = new(probeState)
		}
		*p = probeState{target: target, seq: e.nextSeq, sentAt: e.round}
		if e.links != nil {
			p.sentWall = e.now()
		}
		e.probes[target] = p
		e.probeOrder = append(e.probeOrder, p)
		e.stats.ProbesSent++
		e.send(target, gossip.KindPing, "", p.seq)
		return
	}
}

// sweepProbes advances outstanding probes: direct timeout → indirect
// phase, indirect timeout → suspect. A probe that leaves probeOrder is
// in no other structure any more — resolving one removes it from probes
// — and goes on the free list.
func (e *Engine) sweepProbes() {
	live := e.probeOrder[:0]
	for _, p := range e.probeOrder {
		if cur, ok := e.probes[p.target]; p.done || !ok || cur != p {
			e.freeProbes = append(e.freeProbes, p) // resolved, or superseded
			continue
		}
		if !p.indirect && e.round-p.sentAt >= probeTimeoutRounds {
			p.indirect = true
			p.indirectAt = e.round
			e.sendPingReqs(p)
		}
		if p.indirect && e.round-p.indirectAt >= indirectTimeoutRounds {
			delete(e.probes, p.target)
			e.suspect(p.target)
			e.freeProbes = append(e.freeProbes, p)
			continue
		}
		live = append(live, p)
	}
	e.probeOrder = live
}

// sendPingReqs asks up to indirectProbes proxies to probe the target.
func (e *Engine) sendPingReqs(p *probeState) {
	// Sample extra so filtering out the target still leaves k proxies.
	sent := 0
	for _, proxy := range e.sample(indirectProbes + 1) {
		if proxy == p.target || proxy == e.self || sent >= indirectProbes {
			continue
		}
		if st, ok := e.members[proxy]; ok && st.status != gossip.MemberAlive {
			continue
		}
		sent++
		e.stats.PingReqsSent++
		e.send(proxy, gossip.KindPingReq, p.target, p.seq)
	}
}

// handlePingReq probes the subject on the requester's behalf, unless
// maxRelays are live. The cap is not per requester: From is a name
// the frame carries and nothing checks, so a forger rotates it.
func (e *Engine) handlePingReq(in *gossip.Message) {
	subject := in.Probe
	if subject == "" || in.From == "" {
		return
	}
	if subject == e.self {
		// Degenerate: we are the subject; answer directly.
		e.stats.AcksSent++
		e.send(in.From, gossip.KindPingAck, e.self, in.ProbeSeq)
		return
	}
	if len(e.relays) >= maxRelays {
		e.stats.PingReqsRefused++
		return
	}
	e.relays = append(e.relays, relayEntry{
		subject:   subject,
		seq:       in.ProbeSeq,
		requester: in.From,
		round:     e.round,
	})
	e.stats.ProbesRelayed++
	e.send(subject, gossip.KindPing, "", in.ProbeSeq)
}

// forwardRelayedAck forwards a subject's ack to the requester that
// asked us to probe it.
func (e *Engine) forwardRelayedAck(in *gossip.Message) {
	for i := range e.relays {
		r := &e.relays[i]
		if r.subject != in.From || r.seq != in.ProbeSeq {
			continue
		}
		e.stats.AcksRelayed++
		e.send(r.requester, gossip.KindPingAck, r.subject, r.seq)
		e.relays = append(e.relays[:i], e.relays[i+1:]...)
		return
	}
}

// expireRelays drops relay entries older than the indirect window.
func (e *Engine) expireRelays() {
	const horizon = indirectTimeoutRounds + probeTimeoutRounds + 1
	live := e.relays[:0]
	for _, r := range e.relays {
		if e.round-r.round <= horizon {
			live = append(live, r)
		}
	}
	e.relays = live
}

// suspect raises local suspicion from probe evidence.
func (e *Engine) suspect(id gossip.NodeID) {
	st := e.state(id)
	if st == nil || st.status != gossip.MemberAlive {
		return
	}
	st.status = gossip.MemberSuspect
	st.suspectedAt = e.round
	e.suspectOrder = append(e.suspectOrder, id)
	e.stats.Suspects++
	e.queueUpdate(gossip.MemberUpdate{Node: id, Status: gossip.MemberSuspect, Incarnation: st.incarnation})
	e.notify(id, gossip.MemberSuspect)
}

// sweepSuspects hardens expired suspicions into confirms.
func (e *Engine) sweepSuspects() {
	live := e.suspectOrder[:0]
	for _, id := range e.suspectOrder {
		st, ok := e.members[id]
		if !ok || st.status != gossip.MemberSuspect {
			continue // refuted or already confirmed
		}
		if e.round-st.suspectedAt < e.suspicionTimeout {
			live = append(live, id)
			continue
		}
		st.status = gossip.MemberConfirmed
		e.stats.Confirms++
		e.queueUpdate(gossip.MemberUpdate{Node: id, Status: gossip.MemberConfirmed, Incarnation: st.incarnation})
		e.notify(id, gossip.MemberConfirmed)
	}
	e.suspectOrder = live
}

// applyUpdate folds one received rumor into local state, following
// SWIM's precedence: alive{i} refutes suspect/confirm{j} iff i > j;
// suspect/confirm{i} overrides alive{j} iff i >= j; confirm overrides
// suspect at the same incarnation. Rumors that change our opinion are
// re-queued so they keep spreading epidemically.
func (e *Engine) applyUpdate(u gossip.MemberUpdate) {
	e.stats.UpdatesReceived++
	if u.Node == e.self {
		if u.Status != gossip.MemberAlive && u.Incarnation >= e.incarnation {
			// We are being suspected (or buried). Refute: bump past the
			// rumor's incarnation and reannounce.
			e.incarnation = u.Incarnation + 1
			e.stats.Refutations++
			e.queueUpdate(gossip.MemberUpdate{Node: e.self, Status: gossip.MemberAlive, Incarnation: e.incarnation})
		}
		return
	}
	st := e.state(u.Node)
	if st == nil {
		e.stats.UpdatesIgnored++
		return
	}
	apply := false
	switch u.Status {
	case gossip.MemberAlive:
		apply = u.Incarnation > st.incarnation ||
			(u.Incarnation == st.incarnation && st.status == gossip.MemberAlive)
	case gossip.MemberSuspect:
		apply = (u.Incarnation >= st.incarnation && st.status == gossip.MemberAlive) ||
			u.Incarnation > st.incarnation
	case gossip.MemberConfirmed:
		apply = u.Incarnation >= st.incarnation && st.status != gossip.MemberConfirmed
	}
	if apply && u.Status != gossip.MemberAlive &&
		e.round-st.lastHeard < freshnessRounds && st.lastHeard > 0 {
		// Freshness guard: we are actively hearing from this node;
		// the rumor is stale, whatever its incarnation claims.
		apply = false
	}
	if !apply {
		e.stats.UpdatesIgnored++
		return
	}
	prev := st.status
	st.incarnation = u.Incarnation
	if u.Status == st.status {
		return
	}
	st.status = u.Status
	switch u.Status {
	case gossip.MemberSuspect:
		st.suspectedAt = e.round
		e.suspectOrder = append(e.suspectOrder, u.Node)
	case gossip.MemberAlive:
		if prev != gossip.MemberAlive {
			e.stats.Revivals++
		}
	}
	e.queueUpdate(u)
	e.notify(u.Node, u.Status)
}

// queueUpdate enqueues a rumor for piggybacked dissemination,
// replacing any queued rumor about the same node.
func (e *Engine) queueUpdate(u gossip.MemberUpdate) {
	for i := range e.queue {
		if e.queue[i].u.Node == u.Node {
			e.queue[i] = update{u: u, transmits: updateTransmits}
			return
		}
	}
	e.queue = append(e.queue, update{u: u, transmits: updateTransmits})
}

// attachUpdates piggybacks up to updatesPerMessage queued rumors onto
// an outgoing message, consuming their transmission budget. Rumors are
// taken in queue order; exhausted ones are dropped. The message's list
// is given room for updatesPerMessage the first time: the node's round
// message keeps it, so a rumor, however rare, costs it nothing.
func (e *Engine) attachUpdates(out *gossip.Message) {
	out.Updates = slices.Grow(out.Updates, updatesPerMessage)
	if len(e.queue) == 0 {
		return
	}
	attached := 0
	live := e.queue[:0]
	for i := range e.queue {
		q := e.queue[i]
		if attached < updatesPerMessage && q.transmits > 0 {
			out.Updates = append(out.Updates, q.u)
			q.transmits--
			attached++
			e.stats.UpdatesSent++
		}
		if q.transmits > 0 {
			live = append(live, q)
		}
	}
	e.queue = live
}

// notify fires the transition callback, if installed.
func (e *Engine) notify(id gossip.NodeID, status gossip.MemberStatus) {
	if e.onChange != nil {
		e.onChange(id, status)
	}
}

var _ gossip.Extension = (*Engine)(nil)
