package transport

import "adaptivegossip/internal/gossip"

// Handler consumes an incoming gossip message. Handlers must be fast or
// hand off: transports call them from their delivery goroutines. The
// message is the handler's to keep — it may queue it, retain it and
// read it from another goroutine later. (Drivers that do not need that
// take the borrowed path instead; see InboundReceiver.)
type Handler func(*gossip.Message)

// Transport moves gossip messages between nodes. The built-in
// implementation is UDPTransport (real datagrams).
type Transport interface {
	// LocalID returns the node this endpoint belongs to.
	LocalID() gossip.NodeID
	// Send transmits msg to the named peer. Messages are treated as
	// read-only after Send.
	Send(to gossip.NodeID, msg *gossip.Message) error
	// SetHandler installs the receive callback. Must be called before
	// traffic is expected; messages arriving with no handler are
	// dropped.
	SetHandler(h Handler)
	// Close releases resources and stops delivery.
	Close() error
}

// ManySender is the optional fanout fast path of a Transport: one
// message addressed to many peers in a single call, letting the
// implementation pay the encode cost once instead of once per target
// (UDPTransport implements it). Delivery is best effort per target — a
// failing target does not stop the others. SendMany returns how many
// targets were sent to and the first error encountered.
type ManySender interface {
	SendMany(targets []gossip.NodeID, msg *gossip.Message) (int, error)
}

// ScratchSafe marks Transport implementations that never retain a sent
// *Message (or any slice reachable from it) past the return of
// Send/SendMany — the UDP transport encodes synchronously. Drivers
// hand their reused per-round scratch message (see gossip.Node.Tick's
// lifetime contract) directly to ScratchSafe transports and copy it
// first for any other implementation, so external Endpoints that queue
// messages for asynchronous delivery keep working unchanged.
type ScratchSafe interface {
	// ScratchSafe is a marker; implementations promise the retention
	// property documented on the interface.
	ScratchSafe()
}

// GroupSender transmits a driver's outgoings. Its grouping scratch
// (fanout entries and the flattened target list) is retained across
// rounds, so a steady-state round groups and transmits with zero
// allocations. One GroupSender belongs to one sending loop; it is not
// safe for concurrent use.
type GroupSender struct {
	fans    []gossip.Fanout
	targets []gossip.NodeID
}

// SendGroups coalesces a batch of outgoings into per-message fanouts
// (gossip.AppendGroupOutgoing) and transmits each through t via
// SendMany, so encode-once transports pay the serialization cost once
// per round. It applies the scratch-safety protocol in one place for
// every driver: unless t is marked ScratchSafe, each message is copied
// out of the sender's per-round scratch state (Message.CopyForSend)
// before it reaches the transport. It returns the total targets sent
// and failed.
func (g *GroupSender) SendGroups(t Transport, outs []gossip.Outgoing) (sent, failed int) {
	// Drop last round's message pointers before reuse so the scratch
	// does not pin control messages past their round.
	for i := range g.fans {
		g.fans[i] = gossip.Fanout{}
	}
	g.fans, g.targets = gossip.AppendGroupOutgoing(g.fans[:0], g.targets[:0], outs)
	_, scratchSafe := t.(ScratchSafe)
	for _, f := range g.fans {
		msg := f.Msg
		if !scratchSafe {
			msg = msg.CopyForSend()
		}
		n, _ := SendMany(t, f.Targets, msg)
		sent += n
		failed += len(f.Targets) - n
	}
	return sent, failed
}

// SendMany transmits msg to every target through t, using the
// ManySender fast path when t implements it and falling back to one
// encode-per-peer Send per target otherwise — the shim that keeps
// external Transport implementations working unchanged. Like the fast
// path, the fallback is best effort per target: it attempts every
// target and returns the number sent plus the first error.
func SendMany(t Transport, targets []gossip.NodeID, msg *gossip.Message) (int, error) {
	if ms, ok := t.(ManySender); ok {
		return ms.SendMany(targets, msg)
	}
	sent := 0
	var first error
	for _, to := range targets {
		if err := t.Send(to, msg); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		sent++
	}
	return sent, first
}
