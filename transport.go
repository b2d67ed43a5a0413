package adaptivegossip

import (
	"fmt"
	"net"

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
	// per-node half of a Transport; the built-in implementation is the
	// UDP socket transport.
	Endpoint = transport.Transport
	// ManySender is the optional fanout fast path of an Endpoint: one
	// read-only message addressed to many peers in a single call, so
	// the implementation can pay the encode cost once per round instead
	// of once per target. The built-in UDP fabric implements it; custom
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

// UDPTransportStats counts UDP wire activity, summed across the
// fabric's endpoints.
type UDPTransportStats = transport.UDPStats

// WireStats is the wire counter set surfaced in the unified Stats
// snapshot: how much the fabric moved and what it had to discard. The
// built-in UDP fabric reports it; custom transports opt in by
// implementing WireStatser.
type WireStats = UDPTransportStats

// WireStatser is implemented by transports that can report wire-level
// counters. The facades fold the result into Stats; fabrics without it
// simply leave the wire counters zero.
type WireStatser interface {
	WireStats() WireStats
}

// transportConfig collects what the TransportOptions set on the
// built-in UDP fabric.
type transportConfig = transport.UDPNetworkConfig

// TransportOption configures the built-in transport fabric
// (NewUDPTransport).
type TransportOption func(*transportConfig) error

// WithTransportSeed fixes the fabric's randomness (the loss draws) for
// reproducible runs.
func WithTransportSeed(seed int64) TransportOption {
	return func(c *transportConfig) error {
		c.Seed = uint64(seed)
		return nil
	}
}

// WithLoss injects iid loss with probability p in [0, 1]: the UDP
// fabric drops outgoing datagrams (for demos and tests on loopback,
// where the real network never drops).
func WithLoss(p float64) TransportOption {
	return func(c *transportConfig) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("adaptivegossip: loss probability %v out of [0,1]", p)
		}
		c.Loss = p
		return nil
	}
}

// WithBind sets an explicit listen address (e.g. "0.0.0.0:7946") for a
// single-endpoint UDP fabric. Without it every endpoint auto-binds a
// loopback port.
func WithBind(addr string) TransportOption {
	return func(c *transportConfig) error {
		if addr == "" {
			return fmt.Errorf("adaptivegossip: bind address must not be empty")
		}
		c.Bind = addr
		return nil
	}
}

// WithMaxDatagram overrides the UDP datagram split threshold, in
// [512, 65507] bytes (the largest IPv4 UDP payload).
func WithMaxDatagram(n int) TransportOption {
	return func(c *transportConfig) error {
		if err := transport.CheckMaxDatagram(n); err != nil {
			return fmt.Errorf("adaptivegossip: %w", err)
		}
		c.MaxDatagram = n
		return nil
	}
}

// applyTransportConfig pushes the Config.Transport knobs into the
// fabric before its endpoints are created. Only the built-in UDP
// fabric compresses; asking a custom fabric for real compression is a
// configuration error, never a silent no-op.
func applyTransportConfig(fabric Transport, tc TransportConfig) error {
	comp, err := transport.CompressorByName(tc.Compression)
	if err != nil {
		return fmt.Errorf("adaptivegossip: Config.Transport: %w", err)
	}
	if comp == nil {
		return nil
	}
	udp, ok := fabric.(*UDPTransport)
	if !ok {
		return fmt.Errorf("adaptivegossip: Config.Transport.Compression %q needs the built-in UDP fabric; %T does not compress", tc.Compression, fabric)
	}
	udp.net.SetCompression(comp)
	return nil
}

// UDPTransport is the real-wire fabric: one UDP socket per endpoint,
// routed by an explicit address book — the deployment shape of the
// paper's prototype. It is the default transport of both facades.
//
// Endpoints created on the same fabric are meshed automatically (each
// learns every other's bound address), so an in-process cluster runs
// over real loopback datagrams; remote peers are added with Register
// or Node.AddPeer.
type UDPTransport struct {
	net *transport.UDPNetwork
}

// NewUDPTransport creates a UDP fabric. Options: WithBind (single
// endpoint only), WithLoss, WithMaxDatagram, WithTransportSeed.
func NewUDPTransport(opts ...TransportOption) (*UDPTransport, error) {
	var c transportConfig
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	return &UDPTransport{net: transport.NewUDPNetwork(c)}, nil
}

// Endpoint binds a UDP socket for a member and meshes it with every
// endpoint already on the fabric and every Register-ed peer.
func (t *UDPTransport) Endpoint(id NodeID) (Endpoint, error) {
	ep, err := t.net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// Register maps a peer id to its UDP address on every local endpoint,
// current and future.
func (t *UDPTransport) Register(id NodeID, addr string) error {
	return t.net.Register(id, addr)
}

// Addr returns the bound address of a local endpoint ("" when id has no
// endpoint on this fabric) — useful with ":0" binds.
func (t *UDPTransport) Addr(id NodeID) string { return t.net.Addr(id) }

// Stats sums the wire counters across the fabric's endpoints.
func (t *UDPTransport) Stats() UDPTransportStats { return t.net.Stats() }

// WireStats is Stats, for the WireStatser seam.
func (t *UDPTransport) WireStats() WireStats { return t.net.Stats() }

// Close closes every endpoint socket still open.
func (t *UDPTransport) Close() error { return t.net.Close() }

var (
	_ Transport     = (*UDPTransport)(nil)
	_ PeerRegistrar = (*UDPTransport)(nil)
	_ WireStatser   = (*UDPTransport)(nil)
)

// udpAddrer lets the Node facade report a bound address without
// depending on the concrete transport type.
type udpAddrer interface{ Addr() *net.UDPAddr }

// starter is the optional start hook of endpoints that own a receive
// loop (the UDP socket transport). Facades call it on Start.
type starter interface{ Start() error }
