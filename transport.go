package adaptivegossip

import (
	"fmt"
	"net"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/transport"
)

// Wire-level re-exports. Message and MessageHandler make the Endpoint
// contract nameable by custom transport implementations (TCP, QUIC,
// mock fabrics) without reaching into internal packages.
type (
	// Message is one gossip datagram: events, adaptation headers and
	// the piggybacked recovery/failure-detection payloads.
	Message = gossip.Message
	// MessageHandler consumes an incoming gossip message. Transports
	// call it from their delivery goroutines; it must be fast or hand
	// off.
	MessageHandler = transport.Handler
	// Endpoint moves gossip messages for one group member. It is the
	// per-node half of a Transport; the built-in implementations are
	// the in-memory fabric endpoint and the UDP socket transport.
	Endpoint = transport.Transport
	// ManySender is the optional fanout fast path of an Endpoint: one
	// read-only message addressed to many peers in a single call, so
	// the implementation can pay the encode cost once per round instead
	// of once per target. Both built-in fabrics implement it; custom
	// Endpoints that do not are driven through a per-peer Send fallback
	// and keep working unchanged. See SendMany.
	ManySender = transport.ManySender
	// Compressor is the payload-compression seam of the wire codec
	// (wire v5): it compresses and decompresses the event section of
	// encoded messages. Compress appends the compressed form of src to
	// dst; Decompress appends exactly rawLen decompressed bytes,
	// erroring on any mismatch. Implementations must be safe for
	// concurrent use. Select the built-in implementations by name
	// through Config.Transport.Compression ("none", "flate").
	Compressor = transport.Compressor
)

// SendMany transmits msg to every target through ep, using the
// ManySender fast path when ep implements it and falling back to one
// Send per target otherwise. Delivery is best effort per target: every
// target is attempted, and SendMany returns how many were sent plus the
// first error encountered.
func SendMany(ep Endpoint, targets []NodeID, msg *Message) (int, error) {
	return transport.SendMany(ep, targets, msg)
}

// Transport is the pluggable message fabric behind every group facade:
// NewNode and NewCluster ask it for one Endpoint per local
// member. Bring any fabric — TCP, QUIC, a test mock — by implementing
// this interface and passing it via WithTransport.
//
// A Transport belongs to exactly one group. The group takes ownership
// at construction and closes the fabric when the group is closed.
type Transport interface {
	// Endpoint attaches a member to the fabric. Each id may be
	// attached at most once.
	Endpoint(id NodeID) (Endpoint, error)
	// Close releases fabric-wide resources and any endpoints still
	// open.
	Close() error
}

// PeerRegistrar is implemented by transports that route by explicit
// address books (the built-in UDP fabric). Node.AddPeer forwards
// registrations to it when present.
type PeerRegistrar interface {
	// Register maps a member id to its wire address for every local
	// endpoint, current and future.
	Register(id NodeID, addr string) error
}

// Stats aliases for the built-in transports.
type (
	// MemTransportStats counts in-memory fabric traffic.
	MemTransportStats = transport.MemStats
	// UDPTransportStats counts UDP wire activity, summed across the
	// fabric's endpoints.
	UDPTransportStats = transport.UDPStats
)

// WireStats is the transport-independent wire counter set surfaced in
// the unified Stats snapshot: how much the fabric moved and what it
// had to discard. Both built-in fabrics report it (the memory fabric
// has no wire, so its byte and error counters stay zero); custom
// transports opt in by implementing WireStatser.
type WireStats struct {
	// Sent counts outgoing messages handed to the wire.
	Sent uint64
	// SentBytes counts outgoing payload bytes (0 for fabrics that do
	// not serialize).
	SentBytes uint64
	// Received counts messages delivered up from the wire.
	Received uint64
	// RecvBytes counts inbound payload bytes (0 for fabrics that do
	// not serialize).
	RecvBytes uint64
	// ReadErrors counts failed socket reads.
	ReadErrors uint64
	// DecodeErrors counts inbound datagrams the wire codec rejected
	// (malformed, truncated, over a codec limit) and dropped.
	DecodeErrors uint64
	// SplitChunks counts datagram-size splits of oversized messages.
	SplitChunks uint64
	// RecvQueueDrops counts inbound messages discarded because the
	// receive dispatch queue was full.
	RecvQueueDrops uint64
	// PreCompressionBytes and PostCompressionBytes measure the event
	// sections of encoded messages before and after payload compression
	// (wire v5). Equal counters mean compression is off or never paid
	// for itself; their ratio is the achieved compression factor.
	PreCompressionBytes  uint64
	PostCompressionBytes uint64
}

// WireStatser is implemented by transports that can report wire-level
// counters. The facades fold the result into Stats; fabrics without it
// simply leave the wire counters zero.
type WireStatser interface {
	WireStats() WireStats
}

// transportConfig collects the option set shared by the built-in
// transports. Options that do not apply to a given fabric are rejected
// by its constructor, not silently ignored.
type transportConfig struct {
	seed        int64
	seedSet     bool
	latencyMin  time.Duration
	latencyMax  time.Duration
	latencySet  bool
	loss        float64
	lossSet     bool
	bind        string
	maxDatagram int
	recvQueue   int
	compressor  transport.Compressor // set by Config.Transport.Compression
}

// TransportOption configures a built-in transport fabric
// (NewMemTransport, NewUDPTransport).
type TransportOption func(*transportConfig) error

// WithTransportSeed fixes the fabric's randomness (loss and latency
// draws) for reproducible runs.
func WithTransportSeed(seed int64) TransportOption {
	return func(c *transportConfig) error {
		c.seed = seed
		c.seedSet = true
		return nil
	}
}

// WithLatency injects uniform per-message delivery latency in
// [min, max]. Memory fabric only.
func WithLatency(min, max time.Duration) TransportOption {
	return func(c *transportConfig) error {
		if min < 0 || max < min {
			return fmt.Errorf("adaptivegossip: invalid latency bounds [%v, %v]", min, max)
		}
		c.latencyMin, c.latencyMax = min, max
		c.latencySet = true
		return nil
	}
}

// WithLoss injects iid message loss with probability p in [0, 1]: the
// memory fabric drops in flight, the UDP fabric drops outgoing
// datagrams (for demos and tests on loopback, where the real network
// never drops).
func WithLoss(p float64) TransportOption {
	return func(c *transportConfig) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("adaptivegossip: loss probability %v out of [0,1]", p)
		}
		c.loss = p
		c.lossSet = true
		return nil
	}
}

// WithBind sets an explicit listen address (e.g. "0.0.0.0:7946") for a
// single-endpoint UDP fabric. Without it every endpoint auto-binds a
// loopback port. UDP fabric only.
func WithBind(addr string) TransportOption {
	return func(c *transportConfig) error {
		if addr == "" {
			return fmt.Errorf("adaptivegossip: bind address must not be empty")
		}
		c.bind = addr
		return nil
	}
}

// WithMaxDatagram overrides the UDP datagram split threshold. UDP
// fabric only.
func WithMaxDatagram(n int) TransportOption {
	return func(c *transportConfig) error {
		if n < 512 {
			return fmt.Errorf("adaptivegossip: max datagram %d too small", n)
		}
		c.maxDatagram = n
		return nil
	}
}

// WithRecvQueue sets the per-endpoint receive dispatch queue depth (the
// bound on datagrams buffered between the socket read loop and the
// consumer; overflow is dropped and counted in
// UDPTransportStats.RecvQueueDrops). Deeper queues absorb longer
// consumer stalls at the price of memory. UDP fabric only.
func WithRecvQueue(depth int) TransportOption {
	return func(c *transportConfig) error {
		if depth < 1 {
			return fmt.Errorf("adaptivegossip: recv queue depth %d must be at least 1", depth)
		}
		c.recvQueue = depth
		return nil
	}
}

// compressionSetter is the internal seam through which the facades push
// Config.Transport.Compression into a fabric after construction. Both
// built-in transports implement it; custom fabrics that cannot accept
// the knob surface a configuration error instead of silently sending
// uncompressed.
type compressionSetter interface {
	setCompression(name string, comp transport.Compressor) error
}

// applyTransportConfig pushes the Config.Transport knobs into a fabric
// (built-in or user-provided) before its endpoints are created. Asking
// for real compression on a fabric without the seam is a configuration
// error, never a silent no-op.
func applyTransportConfig(fabric Transport, tc TransportConfig) error {
	comp, err := transport.CompressorByName(tc.Compression)
	if err != nil {
		return fmt.Errorf("adaptivegossip: Config.Transport: %w", err)
	}
	if comp == nil {
		return nil
	}
	cs, ok := fabric.(compressionSetter)
	if !ok {
		return fmt.Errorf("adaptivegossip: Config.Transport.Compression %q needs a transport with a compression seam (the built-in UDP fabric); %T has none", tc.Compression, fabric)
	}
	return cs.setCompression(tc.Compression, comp)
}

func buildTransportConfig(opts []TransportOption) (transportConfig, error) {
	var c transportConfig
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return transportConfig{}, err
		}
	}
	return c, nil
}

// MemTransport is the in-process message fabric: goroutine delivery
// with optional latency and loss injection, replacing the paper's
// Ethernet LAN for in-process groups. It is the default transport of
// NewCluster.
type MemTransport struct {
	net *transport.MemNetwork
}

// NewMemTransport creates an in-memory fabric. Applicable options:
// WithTransportSeed, WithLatency, WithLoss.
func NewMemTransport(opts ...TransportOption) (*MemTransport, error) {
	c, err := buildTransportConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.bind != "" {
		return nil, fmt.Errorf("adaptivegossip: WithBind does not apply to the memory transport")
	}
	if c.maxDatagram != 0 {
		return nil, fmt.Errorf("adaptivegossip: WithMaxDatagram does not apply to the memory transport")
	}
	if c.recvQueue != 0 {
		return nil, fmt.Errorf("adaptivegossip: WithRecvQueue does not apply to the memory transport")
	}
	memOpts := []transport.MemOption{}
	if c.seedSet {
		memOpts = append(memOpts, transport.WithMemSeed(uint64(c.seed)+0x5EED))
	}
	if c.latencySet {
		memOpts = append(memOpts, transport.WithMemLatency(c.latencyMin, c.latencyMax))
	}
	if c.lossSet {
		memOpts = append(memOpts, transport.WithMemLoss(c.loss))
	}
	n, err := transport.NewMemNetwork(memOpts...)
	if err != nil {
		return nil, err
	}
	return &MemTransport{net: n}, nil
}

// Endpoint attaches a member to the fabric.
func (t *MemTransport) Endpoint(id NodeID) (Endpoint, error) {
	return t.net.Endpoint(id)
}

// Stats returns the fabric's traffic counters.
func (t *MemTransport) Stats() MemTransportStats {
	return t.net.Stats()
}

// WireStats maps the fabric counters onto the transport-independent
// wire counter set. The memory fabric never serializes and cannot fail
// a read, so bytes, errors and splits stay zero.
func (t *MemTransport) WireStats() WireStats {
	st := t.net.Stats()
	return WireStats{
		Sent:     st.Sent,
		Received: st.Delivered,
	}
}

// Close shuts the fabric down and waits for in-flight deliveries.
func (t *MemTransport) Close() error {
	t.net.Close()
	return nil
}

// setCompression rejects the Config.Transport.Compression knob: the
// memory fabric never serializes, so only "none" (which never reaches
// the seam) applies.
func (t *MemTransport) setCompression(name string, _ transport.Compressor) error {
	return fmt.Errorf("adaptivegossip: Config.Transport.Compression %q does not apply to the memory transport (it never serializes)", name)
}

var (
	_ Transport         = (*MemTransport)(nil)
	_ WireStatser       = (*MemTransport)(nil)
	_ compressionSetter = (*MemTransport)(nil)
)

// UDPTransport is the real-wire fabric: one UDP socket per endpoint,
// routed by an explicit address book — the deployment shape of the
// paper's prototype. It is the default transport of NewNode.
//
// Endpoints created on the same fabric are meshed automatically (each
// learns every other's bound address), so an in-process cluster can run
// over real loopback datagrams; remote peers are added with Register
// or Node.AddPeer.
type UDPTransport struct {
	cfg transportConfig

	mu       sync.Mutex
	eps      map[NodeID]*transport.UDPTransport
	order    []NodeID
	book     map[NodeID]string
	bindUsed bool
	closed   bool
}

// NewUDPTransport creates a UDP fabric. Applicable options: WithBind
// (single endpoint only), WithLoss, WithMaxDatagram, WithRecvQueue,
// WithTransportSeed.
func NewUDPTransport(opts ...TransportOption) (*UDPTransport, error) {
	c, err := buildTransportConfig(opts)
	if err != nil {
		return nil, err
	}
	if c.latencySet {
		return nil, fmt.Errorf("adaptivegossip: WithLatency does not apply to the UDP transport")
	}
	return &UDPTransport{
		cfg:  c,
		eps:  make(map[NodeID]*transport.UDPTransport),
		book: make(map[NodeID]string),
	}, nil
}

// Endpoint binds a UDP socket for a member and meshes it with every
// endpoint already on the fabric and every Register-ed peer.
func (t *UDPTransport) Endpoint(id NodeID) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("adaptivegossip: transport closed")
	}
	if _, dup := t.eps[id]; dup {
		return nil, fmt.Errorf("adaptivegossip: duplicate endpoint %s", id)
	}
	bind := "127.0.0.1:0"
	if t.cfg.bind != "" {
		if t.bindUsed {
			return nil, fmt.Errorf("adaptivegossip: WithBind fixes a single listen address; endpoint %s needs an auto-bound fabric", id)
		}
		bind = t.cfg.bind
	}
	var udpOpts []transport.UDPOption
	if t.cfg.maxDatagram > 0 {
		udpOpts = append(udpOpts, transport.WithMaxDatagram(t.cfg.maxDatagram))
	}
	if t.cfg.recvQueue > 0 {
		udpOpts = append(udpOpts, transport.WithUDPRecvQueue(t.cfg.recvQueue))
	}
	if t.cfg.loss > 0 {
		seed := uint64(t.cfg.seed) + 0x1055
		for _, b := range []byte(id) {
			seed = seed*131 + uint64(b)
		}
		udpOpts = append(udpOpts, transport.WithUDPSendLoss(t.cfg.loss, seed))
	}
	if t.cfg.compressor != nil {
		udpOpts = append(udpOpts, transport.WithUDPCompression(t.cfg.compressor))
	}
	ep, err := transport.NewUDPTransport(id, bind, udpOpts...)
	if err != nil {
		return nil, err
	}
	// Mesh with the fabric's other endpoints, both directions.
	for _, otherID := range t.order {
		other := t.eps[otherID]
		if err := other.Register(id, ep.Addr().String()); err != nil {
			ep.Close()
			return nil, err
		}
		if err := ep.Register(otherID, other.Addr().String()); err != nil {
			ep.Close()
			return nil, err
		}
	}
	// Apply the fabric-wide address book (remote peers).
	for peer, addr := range t.book {
		if peer == id {
			continue
		}
		if err := ep.Register(peer, addr); err != nil {
			ep.Close()
			return nil, err
		}
	}
	t.eps[id] = ep
	t.order = append(t.order, id)
	t.bindUsed = true
	return ep, nil
}

// Register maps a peer id to its UDP address on every local endpoint,
// current and future.
func (t *UDPTransport) Register(id NodeID, addr string) error {
	if addr == "" {
		return fmt.Errorf("adaptivegossip: peer %s needs a non-empty address", id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("adaptivegossip: transport closed")
	}
	t.book[id] = addr
	for _, epID := range t.order {
		if epID == id {
			continue
		}
		if err := t.eps[epID].Register(id, addr); err != nil {
			return err
		}
	}
	return nil
}

// Addr returns the bound address of a local endpoint ("" when id has no
// endpoint on this fabric) — useful with ":0" binds.
func (t *UDPTransport) Addr(id NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ep, ok := t.eps[id]
	if !ok {
		return ""
	}
	return ep.Addr().String()
}

// Stats sums the wire counters across the fabric's endpoints.
func (t *UDPTransport) Stats() UDPTransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum UDPTransportStats
	for _, ep := range t.eps {
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

// WireStats maps the summed endpoint counters onto the
// transport-independent wire counter set.
func (t *UDPTransport) WireStats() WireStats {
	st := t.Stats()
	return WireStats{
		Sent:                 st.Sent,
		SentBytes:            st.SentBytes,
		Received:             st.Received,
		RecvBytes:            st.RecvBytes,
		ReadErrors:           st.ReadErrors,
		DecodeErrors:         st.DecodeErrors,
		SplitChunks:          st.SplitChunks,
		RecvQueueDrops:       st.RecvQueueDrops,
		PreCompressionBytes:  st.PreCompressionBytes,
		PostCompressionBytes: st.PostCompressionBytes,
	}
}

// Close closes every endpoint socket still open.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	var first error
	for _, ep := range t.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setCompression applies the Config.Transport.Compression knob to every
// endpoint created after the call (the facades apply it before any
// endpoints exist).
func (t *UDPTransport) setCompression(_ string, comp transport.Compressor) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.compressor = comp
	return nil
}

var (
	_ Transport         = (*UDPTransport)(nil)
	_ PeerRegistrar     = (*UDPTransport)(nil)
	_ WireStatser       = (*UDPTransport)(nil)
	_ compressionSetter = (*UDPTransport)(nil)
)

// udpAddrer lets the Node facade report a bound address without
// depending on the concrete transport type.
type udpAddrer interface{ Addr() *net.UDPAddr }

// starter is the optional start hook of endpoints that own a receive
// loop (the UDP socket transport). Facades call it on Start.
type starter interface{ Start() error }
