package gossip

import "slices"

// Outbox is the queue of control messages an extension hands its driver
// between rounds: recovery pulls and responses, failure-detector pings
// and acks. An everything-on member queues several per round, so the
// queue and the messages in it are reused rather than allocated: what
// Take returns — the slice, the messages and every list hanging off
// them — is scratch in the sense of Node.Tick's contract, valid until
// the extension next queues a message, which is no sooner than the next
// Tick or Receive of its node. A driver that holds a message longer (a
// fabric with delivery latency) copies it first with CopyForSend.
//
// The zero value is an empty outbox.
type Outbox struct {
	queued []Outgoing
	msgs   []*Message // every message ever handed out; msgs[:used] since the last Take
	used   int
}

// Message returns an empty message for the caller to fill and Queue. The
// lists an Outbox user appends to keep their backing arrays.
func (b *Outbox) Message() *Message {
	if b.used == len(b.msgs) {
		b.msgs = append(b.msgs, new(Message))
	}
	m := b.msgs[b.used]
	b.used++
	*m = Message{Events: m.Events[:0], Request: m.Request[:0], Updates: m.Updates[:0]}
	return m
}

// Reserve makes n messages, each passed to size (when not nil) to give
// its lists their capacity, and room to queue them: an owner that
// queues at most n between drains, with lists within those capacities,
// allocates nothing for its messages after Reserve.
func (b *Outbox) Reserve(n int, size func(*Message)) {
	for len(b.msgs) < n {
		m := new(Message)
		if size != nil {
			size(m)
		}
		b.msgs = append(b.msgs, m)
	}
	b.queued = slices.Grow(b.queued, n)
}

// Queue addresses msg, a message obtained from Message, to a peer.
func (b *Outbox) Queue(to NodeID, msg *Message) {
	b.queued = append(b.queued, Outgoing{To: to, Msg: msg})
}

// Take drains the queue (nil when empty). The result is valid until the
// next Message call, no sooner than the node's next Tick or Receive.
func (b *Outbox) Take() []Outgoing {
	b.used = 0
	if len(b.queued) == 0 {
		return nil
	}
	out := b.queued
	b.queued = b.queued[:0]
	return out
}
