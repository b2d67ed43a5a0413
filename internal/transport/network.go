package transport

import (
	"fmt"
	"sync"

	"adaptivegossip/internal/gossip"
)

// UDPNetworkConfig configures the endpoints a UDPNetwork binds.
type UDPNetworkConfig struct {
	// Bind is the listen address of the network's only endpoint (e.g.
	// "0.0.0.0:7946"). Empty binds every endpoint to its own loopback
	// port.
	Bind string
	// Seed seeds the loss draws; each endpoint derives its own stream
	// from Seed and its id.
	Seed uint64
	// Loss drops outgoing datagrams with this probability (see
	// WithUDPSendLoss).
	Loss float64
	// MaxDatagram overrides DefaultMaxDatagram when positive.
	MaxDatagram int
}

// UDPNetwork is a fabric of UDPTransport endpoints in one process:
// every endpoint it binds is meshed with the others (each learns every
// other's bound address, both directions), and Register adds a remote
// peer to every endpoint's address book, current and future. Endpoints
// are handed out unstarted; the caller starts them. They share the
// fabric's free lists of receive envelopes and send buffers.
type UDPNetwork struct {
	mu       sync.Mutex
	cfg      UDPNetworkConfig
	scratch  *endpointScratch
	comp     Compressor
	eps      map[gossip.NodeID]*UDPTransport
	order    []gossip.NodeID
	book     map[gossip.NodeID]string
	bindUsed bool
	closed   bool
}

// NewUDPNetwork creates an empty fabric.
func NewUDPNetwork(cfg UDPNetworkConfig) *UDPNetwork {
	return &UDPNetwork{
		cfg:     cfg,
		scratch: newEndpointScratch(),
		eps:     make(map[gossip.NodeID]*UDPTransport),
		book:    make(map[gossip.NodeID]string),
	}
}

// SetCompression installs comp on the wire codec of every endpoint
// bound after the call.
func (n *UDPNetwork) SetCompression(comp Compressor) {
	n.mu.Lock()
	n.comp = comp
	n.mu.Unlock()
}

// Endpoint binds a UDP socket for id and meshes it with every endpoint
// already on the fabric and every Register-ed peer.
func (n *UDPNetwork) Endpoint(id gossip.NodeID) (*UDPTransport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, dup := n.eps[id]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %s", id)
	}
	bind := "127.0.0.1:0"
	if n.cfg.Bind != "" {
		if n.bindUsed {
			return nil, fmt.Errorf("transport: bind address %s fixes a single endpoint; %s needs an auto-bound network", n.cfg.Bind, id)
		}
		bind = n.cfg.Bind
	}
	opts := []UDPOption{withScratch(n.scratch)}
	if n.cfg.MaxDatagram > 0 {
		opts = append(opts, WithMaxDatagram(n.cfg.MaxDatagram))
	}
	if n.cfg.Loss > 0 {
		seed := n.cfg.Seed + 0x1055
		for _, b := range []byte(id) {
			seed = seed*131 + uint64(b)
		}
		opts = append(opts, WithUDPSendLoss(n.cfg.Loss, seed))
	}
	if n.comp != nil {
		opts = append(opts, WithUDPCompression(n.comp))
	}
	ep, err := NewUDPTransport(id, bind, opts...)
	if err != nil {
		return nil, err
	}
	for _, otherID := range n.order {
		other := n.eps[otherID]
		if err := other.Register(id, ep.Addr().String()); err != nil {
			ep.Close()
			return nil, err
		}
		if err := ep.Register(otherID, other.Addr().String()); err != nil {
			ep.Close()
			return nil, err
		}
	}
	for peer, addr := range n.book {
		if peer == id {
			continue
		}
		if err := ep.Register(peer, addr); err != nil {
			ep.Close()
			return nil, err
		}
	}
	n.eps[id] = ep
	n.order = append(n.order, id)
	n.bindUsed = true
	return ep, nil
}

// Register maps a peer id to its UDP address on every endpoint,
// current and future.
func (n *UDPNetwork) Register(id gossip.NodeID, addr string) error {
	if addr == "" {
		return fmt.Errorf("transport: peer %s needs a non-empty address", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("transport: network closed")
	}
	n.book[id] = addr
	for _, epID := range n.order {
		if epID == id {
			continue
		}
		if err := n.eps[epID].Register(id, addr); err != nil {
			return err
		}
	}
	return nil
}

// Addr returns the bound address of id's endpoint, "" when it has none
// on this network.
func (n *UDPNetwork) Addr(id gossip.NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.eps[id]
	if !ok {
		return ""
	}
	return ep.Addr().String()
}

// Stats sums the counters of every endpoint.
func (n *UDPNetwork) Stats() UDPStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum UDPStats
	for _, ep := range n.eps {
		st := ep.Stats()
		sum.Sent += st.Sent
		sum.SentBytes += st.SentBytes
		sum.SplitChunks += st.SplitChunks
		sum.Received += st.Received
		sum.RecvBytes += st.RecvBytes
		sum.DecodeErrors += st.DecodeErrors
		sum.NoHandler += st.NoHandler
		sum.SendErrors += st.SendErrors
		sum.LossDropped += st.LossDropped
		sum.ReadErrors += st.ReadErrors
		sum.RecvQueueDrops += st.RecvQueueDrops
		sum.PreCompressionBytes += st.PreCompressionBytes
		sum.PostCompressionBytes += st.PostCompressionBytes
	}
	return sum
}

// Close closes every endpoint; later Endpoint and Register calls fail.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	var first error
	for _, ep := range n.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
