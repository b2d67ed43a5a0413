// Package gossip implements the lpbcast-style probabilistic broadcast
// algorithm of Eugster et al. (DSN 2001) as reproduced in Figure 1 of
// "Adaptive Gossip-Based Broadcast" (Rodrigues et al., DSN 2003).
//
// The package provides the protocol as a deterministic, single-threaded
// state machine (Node). Drivers — the discrete-event simulator in
// internal/sim or the goroutine runtime in internal/runtime — own time,
// randomness and message delivery, and serialize all calls into a Node.
// This is what lets one implementation back both the paper's simulation
// results and its prototype validation.
//
// Adaptation (the paper's contribution, implemented in internal/core) is
// layered on top through the Extension interface rather than by forking
// the algorithm, mirroring the paper's claim that the mechanism applies
// to gossip-based broadcast algorithms in general.
package gossip

import "strconv"

// NodeID identifies a member of the broadcast group. IDs are opaque
// strings; transports map them to addresses.
type NodeID string

// EventID uniquely identifies a broadcast event: the identifier of the
// origin node plus a per-origin sequence number.
type EventID struct {
	Origin NodeID
	Seq    uint64
}

// String renders the identifier as "origin/seq".
func (id EventID) String() string {
	return string(id.Origin) + "/" + strconv.FormatUint(id.Seq, 10)
}

// Event is a broadcast message together with its gossip age.
//
// Age counts how many gossip rounds the event has lived through: every
// node holding the event increments the age once per round before
// forwarding, and a node receiving a copy keeps the maximum of the known
// and received ages (paper Figure 1). Because all holders advance ages in
// lockstep, age approximates the number of times the event has been
// forwarded between nodes, which in turn tracks its level of
// dissemination — the property the adaptive mechanism relies on.
type Event struct {
	ID      EventID
	Age     int
	Payload []byte

	// Hop counts wire traversals from the origin: 0 at the origin,
	// incremented once each time a copy is received from another node.
	// When the sender propagates wire trace context (Message.Traced)
	// the count is exact across real transports; otherwise
	// receivers fall back to Hop = Age, the pre-trace approximation.
	// Unlike Age, Hop is never advanced while the event sits in a
	// buffer, so traces distinguish "travelled far" from "lived long".
	Hop int
}

// NextEventRun returns the end index (exclusive) of the run of
// consecutive events sharing events[start]'s origin. Runs are the unit
// of the columnar wire encoding (which writes each origin once per
// run) and of datagram fragmentation (EncodeChunks cuts on run
// boundaries). start must be a valid index.
func NextEventRun(events []Event, start int) int {
	origin := events[start].ID.Origin
	end := start + 1
	for end < len(events) && events[end].ID.Origin == origin {
		end++
	}
	return end
}

// Clone returns a deep copy of the event, including the payload in an
// allocation of its own: the copy Message.Clone and an owning decode
// make. A Node retaining a borrowed payload uses Node.OwnPayload.
func (e Event) Clone() Event {
	c := e
	if e.Payload != nil {
		c.Payload = make([]byte, len(e.Payload))
		copy(c.Payload, e.Payload)
	}
	return c
}
