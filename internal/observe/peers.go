package observe

import (
	"sort"
	"sync"
)

// DefaultPeerTableCapacity bounds a PeerTable when the configured
// capacity is zero or negative. Gossip groups are small (the paper's
// testbed is 60 workstations); 1024 leaves room for churn without
// letting a hostile peer list grow the table unboundedly.
const DefaultPeerTableCapacity = 1024

// PeerStats is the per-peer link instrument block: what this group sent
// toward and received from one remote peer, plus the RTT distribution
// harvested from the failure detector's ping/ping-ack exchange. All
// fields are alloc-free atomics, so transports update them from their
// hot paths without violating the zero-allocation round contracts.
type PeerStats struct {
	// MessagesSent counts datagrams (or fabric messages) sent to the
	// peer, after loss injection.
	MessagesSent Counter
	// BytesSent counts wire bytes sent to the peer (zero on fabrics
	// that do not serialize).
	BytesSent Counter
	// MessagesReceived counts datagrams received from the peer (keyed
	// by the decoded sender id).
	MessagesReceived Counter
	// BytesReceived counts wire bytes received from the peer.
	BytesReceived Counter
	// Drops counts outgoing datagrams to the peer dropped by injected
	// loss.
	Drops Counter
	// SendErrors counts failed sends to the peer (socket errors,
	// unknown address).
	SendErrors Counter
	// RTTMicros distributes ping→ack round-trip times to the peer, in
	// microseconds (empty unless the failure detector runs with a link
	// table attached).
	RTTMicros Histogram
}

// PeerSnapshot is an immutable copy of one peer's link stats.
type PeerSnapshot struct {
	Peer             string
	MessagesSent     uint64
	BytesSent        uint64
	MessagesReceived uint64
	BytesReceived    uint64
	Drops            uint64
	SendErrors       uint64
	RTT              HistogramSnapshot
}

// PeerTable is a fixed-capacity table of per-peer link stats shared by
// a group's transports and failure detector. Get is the hot-path
// accessor: after a peer's first touch it is a read-locked map hit that
// never allocates, so per-datagram accounting stays compatible with the
// alloc-free round contracts. Once the capacity is reached new peers
// are not admitted (counted in Overflow) — a hostile peer list cannot
// grow the table.
type PeerTable struct {
	capacity int

	mu       sync.RWMutex
	peers    map[string]*PeerStats
	overflow Counter
}

// NewPeerTable creates a table bounded at capacity entries (zero or
// negative means DefaultPeerTableCapacity).
func NewPeerTable(capacity int) *PeerTable {
	if capacity <= 0 {
		capacity = DefaultPeerTableCapacity
	}
	return &PeerTable{
		capacity: capacity,
		peers:    make(map[string]*PeerStats),
	}
}

// Get returns the stats block for peer, creating it on first touch. It
// returns nil for the empty id and for new peers beyond the capacity
// bound; callers skip accounting in that case.
func (t *PeerTable) Get(peer string) *PeerStats {
	if peer == "" {
		return nil
	}
	t.mu.RLock()
	ps := t.peers[peer]
	t.mu.RUnlock()
	if ps != nil {
		return ps
	}
	return t.insert(peer)
}

// insert is the cold path of Get: admit the peer under the write lock,
// re-checking both existence and the capacity bound.
func (t *PeerTable) insert(peer string) *PeerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps, ok := t.peers[peer]; ok {
		return ps
	}
	if len(t.peers) >= t.capacity {
		t.overflow.Inc()
		return nil
	}
	ps := &PeerStats{}
	t.peers[peer] = ps
	return ps
}

// Len reports the number of tracked peers.
func (t *PeerTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.peers)
}

// Overflow counts peers rejected by the capacity bound.
func (t *PeerTable) Overflow() uint64 { return t.overflow.Load() }

// Snapshot copies every peer's counters, sorted by peer id so
// expositions are stable scrape over scrape.
func (t *PeerTable) Snapshot() []PeerSnapshot {
	t.mu.RLock()
	out := make([]PeerSnapshot, 0, len(t.peers))
	for peer, ps := range t.peers {
		out = append(out, PeerSnapshot{
			Peer:             peer,
			MessagesSent:     ps.MessagesSent.Load(),
			BytesSent:        ps.BytesSent.Load(),
			MessagesReceived: ps.MessagesReceived.Load(),
			BytesReceived:    ps.BytesReceived.Load(),
			Drops:            ps.Drops.Load(),
			SendErrors:       ps.SendErrors.Load(),
			RTT:              ps.RTTMicros.Snapshot(),
		})
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
