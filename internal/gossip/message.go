package gossip

import "fmt"

// MessageKind discriminates the message types on the wire. The zero
// value is a regular gossip exchange; the recovery kinds carry the
// anti-entropy pull-repair traffic (internal/recovery) and the probe
// kinds carry the SWIM-style failure-detection traffic
// (internal/failure).
type MessageKind uint8

const (
	// KindGossip is a regular push-gossip round message (Figure 1),
	// optionally piggybacking a recovery digest.
	KindGossip MessageKind = iota
	// KindRecoveryRequest asks the receiver to retransmit the events
	// listed in Request.
	KindRecoveryRequest
	// KindRecoveryResponse carries retransmitted events answering a
	// request; Events holds the payloads.
	KindRecoveryResponse
	// KindPing is a failure-detector liveness probe; the receiver
	// answers with KindPingAck. Probe names the probed subject when the
	// ping is sent by a proxy on another node's behalf.
	KindPing
	// KindPingAck answers a ping, echoing ProbeSeq. Probe carries the
	// subject when the ack is relayed through a proxy.
	KindPingAck
	// KindPingReq asks the receiver to probe Probe on the sender's
	// behalf (SWIM's indirect probe) and relay the ack back.
	KindPingReq

	// maxMessageKind is the highest defined kind; codecs reject beyond.
	maxMessageKind = KindPingReq
)

// String returns a short kind name.
func (k MessageKind) String() string {
	switch k {
	case KindGossip:
		return "gossip"
	case KindRecoveryRequest:
		return "recovery-request"
	case KindRecoveryResponse:
		return "recovery-response"
	case KindPing:
		return "ping"
	case KindPingAck:
		return "ping-ack"
	case KindPingReq:
		return "ping-req"
	default:
		return fmt.Sprintf("MessageKind(%d)", uint8(k))
	}
}

// Valid reports whether the kind is one of the defined wire kinds.
func (k MessageKind) Valid() bool { return k <= maxMessageKind }

// MemberStatus is a failure detector's opinion of a group member,
// disseminated in MemberUpdate entries piggybacked on gossip.
type MemberStatus uint8

const (
	// MemberAlive: the member is (again) reachable.
	MemberAlive MemberStatus = iota
	// MemberSuspect: probes failed; the member may have crashed.
	MemberSuspect
	// MemberConfirmed: the suspicion timeout elapsed unrefuted — the
	// member is declared crashed and should leave views.
	MemberConfirmed
)

// String names the status.
func (s MemberStatus) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberConfirmed:
		return "confirmed"
	default:
		return fmt.Sprintf("MemberStatus(%d)", uint8(s))
	}
}

// MemberUpdate is one failure-detection rumor: a (node, status,
// incarnation) triple. Incarnations totally order updates about the
// same node: an alive update refutes suspicion only with a strictly
// higher incarnation, which only the subject itself can issue (SWIM's
// refutation rule).
type MemberUpdate struct {
	Node        NodeID
	Status      MemberStatus
	Incarnation uint64
}

// Message is one gossip exchange: the sender's buffered events plus the
// small control headers that ride along with them. Per the paper, the
// adaptation mechanism adds no messages of its own — the SamplePeriod
// and MinBuff header fields are the entirety of its wire footprint
// (Figure 5(a)), and the Subs field carries lpbcast's partial-view
// membership traffic.
//
// A message built by Node.Tick is shared read-only between the fanout
// targets; receivers copy event values into their own buffers and must
// not mutate the message.
type Message struct {
	// Kind discriminates gossip from recovery control traffic. The zero
	// value is a regular gossip message.
	Kind MessageKind
	// From is the sending node.
	From NodeID
	// Round is the sender's local round counter. Diagnostic only.
	Round uint64

	// SamplePeriod is the sender's current sample period s.
	SamplePeriod uint64
	// MinBuff is the sender's adaptation header for SamplePeriod: the
	// κ smallest (owner, capacity) entries it knows, ascending, one at
	// the paper's κ = 1. Empty when the sender does not adapt; the
	// header is present iff the list is non-empty.
	MinBuff []BuffCap

	// Events are the sender's buffered events (its full buffer, as in
	// Figure 1).
	Events []Event

	// Subs piggybacks partial-view subscriptions on data gossip.
	Subs []NodeID

	// Digest piggybacks the identifiers of events the sender has seen
	// recently and can retransmit — the anti-entropy advertisement
	// (internal/recovery). Empty when recovery is disabled.
	Digest []EventID
	// Request lists the event identifiers a KindRecoveryRequest asks
	// the receiver to retransmit.
	Request []EventID

	// Traced reports that the sender propagates wire trace context:
	// each event's Hop counter rides the wire (the frame's trace flag),
	// so receivers stitch exact causal hop paths instead of the age
	// approximation. Senders set it when a rumor tracer is attached.
	Traced bool

	// Health piggybacks gossip-disseminated node health digests
	// (internal/health): each entry is one member's self-reported
	// counters and delivery-hops histogram. Empty when health
	// dissemination is off.
	Health []HealthDigest

	// Probe is the failure-detection subject: the node a KindPingReq
	// asks the receiver to probe, or the node a relayed KindPing /
	// KindPingAck is about. Empty for direct probes and non-probe
	// traffic.
	Probe NodeID
	// ProbeSeq correlates an ack with the probe that solicited it.
	ProbeSeq uint64
	// Updates piggybacks failure-detection rumors (alive / suspect /
	// confirmed transitions) on gossip and probe traffic — the SWIM
	// dissemination component. Empty when failure detection is off.
	Updates []MemberUpdate

	// Borrowed marks a message on lease from a transport's receive path
	// (transport.Inbound): the Message value and its list fields are
	// reused for the next datagram, and every Event.Payload aliases the
	// datagram read buffer or decompression scratch, valid only until
	// the lease is released. A receiver that retains a payload must
	// clone it first (Node.Receive and the recovery store do, once per
	// event new to them); node ids are ordinary strings and may be kept.
	// Never on the wire. Clone clears it; CopyForSend, which shares
	// payloads, keeps it.
	Borrowed bool
}

// BuffCap is one (node, buffer capacity) observation, the unit of the
// adaptation header.
type BuffCap struct {
	Node NodeID
	Cap  int
}

// AppendEvent appends one event to the message, reusing the Events
// backing array when capacity allows (decoders preallocate it).
func (m *Message) AppendEvent(ev Event) {
	m.Events = append(m.Events, ev)
}

// CopyForSend returns a copy of the message that is independent of the
// sender's per-round scratch state: the Message value and every slice
// hanging off it are copied, while event payload bytes — immutable by
// convention — stay shared. Transports and drivers that retain a
// message beyond the sending round (see Node.Tick's lifetime contract)
// use it instead of the deep Clone, which also duplicates payloads.
func (m *Message) CopyForSend() *Message {
	c := *m
	c.Events = append([]Event(nil), m.Events...)
	c.MinBuff = append([]BuffCap(nil), m.MinBuff...)
	c.Subs = append([]NodeID(nil), m.Subs...)
	c.Digest = append([]EventID(nil), m.Digest...)
	c.Request = append([]EventID(nil), m.Request...)
	c.Updates = append([]MemberUpdate(nil), m.Updates...)
	c.Health = append([]HealthDigest(nil), m.Health...)
	return &c
}

// Clone returns a deep copy of the message, including payloads. Used
// when a driver needs to hand the same logical message to mutating
// consumers. CopyForSend owns the one authoritative list of Message
// slice fields; Clone only deepens the event payloads on top of it.
func (m *Message) Clone() *Message {
	c := m.CopyForSend()
	for i, e := range c.Events {
		c.Events[i] = e.Clone()
	}
	c.Borrowed = false
	return c
}
