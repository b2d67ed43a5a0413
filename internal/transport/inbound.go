package transport

import (
	"sync/atomic"
	"unsafe"

	"adaptivegossip/internal/gossip"
)

// Receive-side memory. Gossip is redundant by design: a member receives
// each event several times and keeps it once. The borrowed decode path
// therefore allocates nothing per datagram — the decoded message, its
// lists, the node ids and the payload bytes all live in memory that is
// reused for the next datagram — and leaves the one unavoidable copy,
// the payload of an event the receiver has not seen before, to the
// receiver (gossip.Node.Receive, the recovery store).

// Inbound is one received message on lease from a transport's receive
// path: the datagram read buffer, the decompression scratch and the
// gossip.Message decoded into them, travelling together so all three
// are reused. The holder calls Release exactly once, after which the
// message and everything reachable from it must not be touched. An
// Inbound that is never released is ordinary garbage: it is collected,
// not reused.
type Inbound struct {
	msg     gossip.Message
	buf     []byte // datagram read buffer
	n       int    // bytes of buf the socket read filled
	scratch []byte // decompressed event section, when the frame had one
	leased  atomic.Bool
	home    *freeList[*Inbound] // the fabric's idle envelopes; nil keeps it out of any
}

// InboundHandler consumes a leased message. Like Handler it runs on the
// transport's delivery goroutine and must be fast or hand off; unlike
// Handler it must Release what it is given (on whichever goroutine ends
// up done with it) and must clone any payload it retains — see
// gossip.Message.Borrowed.
type InboundHandler func(*Inbound)

// InboundReceiver is the optional borrowed-receive fast path of a
// Transport, in the mould of ManySender: a driver that
// can honour the lease installs an InboundHandler and receives decoded
// messages without a per-datagram allocation. The two handlers are one
// slot on UDPTransport: SetHandler installs an InboundHandler that
// clones each message before handing it on, so either call replaces
// the other.
type InboundReceiver interface {
	SetInboundHandler(h InboundHandler)
}

// maxDatagramRead is the size of every read buffer: the largest UDP
// payload, whatever datagram bound the sender was configured with.
const maxDatagramRead = 1 << 16

// maxPooledInbound bounds the decode state (decompression scratch and
// message lists, beyond the fixed read buffer) an Inbound may carry back
// into its fabric's free list. Traffic within the datagram bound
// decodes into a fraction of it; only a frame built to inflate — a
// spoofed event count, a decompression bomb within the codec's ratio
// cap — exceeds it, and that Inbound is dropped on Release instead of
// kept.
const maxPooledInbound = 4 * DefaultMaxDatagram

// Message returns the leased message, valid until Release.
func (in *Inbound) Message() *gossip.Message { return &in.msg }

// Release ends the lease and hands the envelope back to its fabric's
// free list. Releasing twice is a bug in the holder that would hand one
// buffer to two readers, so it panics instead of corrupting a later
// message.
func (in *Inbound) Release() {
	if !in.leased.CompareAndSwap(true, false) {
		panic("transport: Inbound released twice")
	}
	if in.retained() <= maxPooledInbound {
		in.home.put(in)
	}
}

// retained is the decode state the envelope holds beyond its read
// buffer, in bytes.
func (in *Inbound) retained() int {
	m := &in.msg
	return cap(in.scratch) +
		cap(m.Events)*int(unsafe.Sizeof(gossip.Event{})) +
		cap(m.MinBuff)*int(unsafe.Sizeof(gossip.BuffCap{})) +
		cap(m.Subs)*int(unsafe.Sizeof(gossip.NodeID(""))) +
		(cap(m.Digest)+cap(m.Request))*int(unsafe.Sizeof(gossip.EventID{})) +
		cap(m.Updates)*int(unsafe.Sizeof(gossip.MemberUpdate{})) +
		cap(m.Health)*int(unsafe.Sizeof(gossip.HealthDigest{}))
}

// decode parses data — the envelope's own read buffer on the transport
// path — into the envelope's message, allocating nothing once the
// envelope and ids have seen the group's traffic. The message is
// Borrowed: its payloads alias data or the envelope's scratch, and it is
// valid until Release.
func (in *Inbound) decode(c Codec, ids *idTable, data []byte) (*gossip.Message, error) {
	if err := c.decodeInto(&in.msg, data, ids, &in.scratch); err != nil {
		return nil, err
	}
	return &in.msg, nil
}

// Intern-table bounds. A group's ids fit many times over; a peer
// inventing ids fills the table and then merely stops benefiting from
// it.
const (
	maxInternedIDs   = 4096
	maxInternedBytes = 64 << 10
)

// idTable interns the node ids one transport decodes,
// so a datagram naming sixteen known origins allocates no strings. It
// belongs to the transport's single decoding goroutine and is not safe
// for concurrent use. A nil table allocates every id.
type idTable struct {
	ids   map[string]string
	bytes int
}

func newIDTable() *idTable { return &idTable{ids: make(map[string]string)} }

// intern returns b as a string, shared with every earlier sighting of
// the same id while the table has room. The result is an ordinary
// immutable string, safe to retain.
func (t *idTable) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t != nil {
		// A lookup keyed by string(b) does not allocate: the compiler
		// elides the conversion.
		if s, ok := t.ids[string(b)]; ok {
			return s
		}
	}
	// First sight of an id, a full table, or an owning decode without one: one string.
	s := string(b)
	if t != nil && len(t.ids) < maxInternedIDs && t.bytes+len(s) <= maxInternedBytes {
		t.ids[s] = s
		t.bytes += len(s)
	}
	return s
}
