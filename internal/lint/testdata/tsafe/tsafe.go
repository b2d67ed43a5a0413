// Package tsafe seeds transport-safety violations for the
// transportsafe analyzer: per-round scratch messages reaching
// Send/SendMany on endpoints that are not marked ScratchSafe.
package tsafe

type Message struct {
	Events []int
}

// CopyForSend detaches a message from the producer's scratch state.
func (m *Message) CopyForSend() *Message {
	c := *m
	c.Events = append([]int(nil), m.Events...)
	return &c
}

// ScratchSafe mirrors transport.ScratchSafe: implementations promise
// not to retain sent messages past Send/SendMany returning.
type ScratchSafe interface {
	ScratchSafe()
}

// Endpoint mirrors the transport seam.
type Endpoint interface {
	Send(to string, msg *Message) error
	SendMany(targets []string, msg *Message) (int, error)
}

// AsyncEndpoint queues messages for later delivery: retaining, and not
// marked ScratchSafe.
type AsyncEndpoint struct {
	queue chan *Message
}

func (e *AsyncEndpoint) Send(to string, msg *Message) error {
	e.queue <- msg
	return nil
}

func (e *AsyncEndpoint) SendMany(targets []string, msg *Message) (int, error) {
	for range targets {
		e.queue <- msg
	}
	return len(targets), nil
}

// SyncEndpoint consumes messages synchronously and says so.
type SyncEndpoint struct {
	bytesOut int
}

func (e *SyncEndpoint) Send(to string, msg *Message) error {
	e.bytesOut += len(msg.Events)
	return nil
}

func (e *SyncEndpoint) SendMany(targets []string, msg *Message) (int, error) {
	e.bytesOut += len(targets) * len(msg.Events)
	return len(targets), nil
}

// ScratchSafe marks the synchronous endpoint.
func (e *SyncEndpoint) ScratchSafe() {}

type Node struct {
	scratch Message
}

// Tick returns the per-round scratch message.
//
//gossip:scratch
func (n *Node) Tick() *Message {
	return &n.scratch
}

func Drive(n *Node, async *AsyncEndpoint, sync *SyncEndpoint, ep Endpoint, targets []string) {
	msg := n.Tick()

	_ = async.Send("a", msg)            // want `not marked transport.ScratchSafe`
	_, _ = async.SendMany(targets, msg) // want `not marked transport.ScratchSafe`

	_ = sync.Send("a", msg)            // marked ScratchSafe: ok
	_, _ = sync.SendMany(targets, msg) // marked ScratchSafe: ok

	_ = async.Send("a", msg.CopyForSend()) // copied first: ok

	_ = ep.Send("a", msg) // want `through an interface with no ScratchSafe guard`
}

// DriveGuarded performs the runtime check the analyzer looks for, the
// way transport.GroupSender.SendGroups does.
func DriveGuarded(n *Node, ep Endpoint) {
	msg := n.Tick()
	if _, ok := ep.(ScratchSafe); !ok {
		msg = msg.CopyForSend()
	}
	_ = ep.Send("a", msg)
}
