package adaptivegossip

import (
	"fmt"

	"adaptivegossip/internal/transport"
)

// UDPTransportStats counts UDP wire activity, summed across the
// fabric's endpoints.
type UDPTransportStats = transport.UDPStats

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
		if !(p >= 0 && p <= 1) {
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
// fabric before its endpoints are created.
func applyTransportConfig(fabric *UDPTransport, tc TransportConfig) error {
	comp, err := transport.CompressorByName(tc.Compression)
	if err != nil {
		return fmt.Errorf("adaptivegossip: Config.Transport: %w", err)
	}
	fabric.net.SetCompression(comp)
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

// Close closes every endpoint socket still open.
func (t *UDPTransport) Close() error { return t.net.Close() }
