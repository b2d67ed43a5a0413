package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"

	"adaptivegossip/internal/membership"
)

// Node is a single broadcast group member — the deployment shape of the
// paper's prototype (one process per workstation). By default it
// gossips over a UDP fabric; plug any Transport with WithTransport.
// Create with NewNode, launch with Start, tear down with Close.
type Node struct {
	id NodeID
	g  *group // a group of one
	m  *member
}

// NewNode builds a group member named id with the shared option set
// (WithTransport, WithPeers, WithSeed, WithDeliver, WithOnMemberChange).
// Without WithTransport it binds a UDP fabric on an ephemeral loopback
// port; pass NewUDPTransport(WithBind(...)) for a production listen
// address.
func NewNode(id string, cfg Config, opts ...Option) (*Node, error) {
	g, err := newGroup(facadeNode, groupOptions{}, opts)
	if err != nil {
		return nil, err
	}
	if id == "" {
		return nil, g.fail(fmt.Errorf("adaptivegossip: node id is required"))
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, g.fail(err)
	}
	seed := g.opts.seed
	if seed == 0 {
		for _, b := range []byte(id) {
			seed = seed*131 + int64(b)
		}
		seed++
	}
	if err := g.open(cfg, seed); err != nil {
		return nil, g.fail(err)
	}

	members := []NodeID{NodeID(id)}
	if len(g.opts.peers) > 0 {
		registrar, ok := g.fabric.(PeerRegistrar)
		if !ok {
			return nil, g.fail(fmt.Errorf("adaptivegossip: WithPeers needs a transport with an address book (PeerRegistrar)"))
		}
		for peer, addr := range g.opts.peers {
			if err := registrar.Register(NodeID(peer), addr); err != nil {
				return nil, g.fail(err)
			}
			members = append(members, NodeID(peer))
		}
	}
	m, err := g.newMember(NodeID(id), cfg, membership.NewRegistry(members...),
		rand.New(rand.NewPCG(uint64(seed), uint64(seed)^0xABCDEF)), uint64(seed)+7)
	if err != nil {
		return nil, g.fail(err)
	}
	n := &Node{id: NodeID(id), g: g, m: m}
	if err := g.obs.bindServer(cfg.Observability.DebugAddr, n.Stats, n.ClusterHealth); err != nil {
		return nil, g.fail(err)
	}
	return n, nil
}

// ID returns the node's name.
func (n *Node) ID() NodeID { return n.id }

// Addr returns the node's bound wire address (useful with ":0" binds),
// or "" when the transport has no address to report.
func (n *Node) Addr() string {
	if a, ok := n.g.eps[0].(udpAddrer); ok {
		return a.Addr().String()
	}
	return ""
}

// AddPeer registers a member discovered after startup: its address is
// registered with the transport's address book and the member joins
// the gossip target set. On custom transports without an address book
// (PeerRegistrar), which route by id, pass addr == ""; a non-empty
// address there is an error, and an
// invalid address on a book-keeping transport fails rather than
// leaving a member unreachable.
func (n *Node) AddPeer(id, addr string) error {
	registrar, ok := n.g.fabric.(PeerRegistrar)
	switch {
	case ok:
		if err := registrar.Register(NodeID(id), addr); err != nil {
			return err
		}
	case addr != "":
		return fmt.Errorf("adaptivegossip: transport has no address book to register %q with", addr)
	}
	n.m.reg.Add(NodeID(id))
	return nil
}

// RemovePeer drops a member from the gossip target set.
func (n *Node) RemovePeer(id string) {
	n.m.reg.Remove(NodeID(id))
}

// Members returns the node's current gossip target set (itself
// included). With Config.Failure.Enabled, confirmed-crashed members
// disappear from this list and rejoining members return to it.
func (n *Node) Members() []NodeID {
	return n.m.reg.IDs()
}

// Start begins gossiping. Cancelling ctx closes the node; a node that
// has been closed cannot be restarted. Idempotent while open — every
// context passed to Start is watched, so cancelling any of them closes
// the node. A transient endpoint failure may be retried.
func (n *Node) Start(ctx context.Context) error { return n.g.start(ctx) }

// Close halts gossip, closes the transport and ends every Events
// stream. Idempotent; later calls return nil.
func (n *Node) Close() error { return n.g.close() }

// Events returns a stream of this node's deliveries. From
// subscription onward the stream sees every delivery the WithDeliver
// callback sees; it is closed when ctx is cancelled or the node is
// closed. A subscriber that falls more than DefaultEventStreamBuffer
// behind loses deliveries (counted in Stats.StreamDropped).
func (n *Node) Events(ctx context.Context) <-chan Delivery {
	return n.g.hub.subscribe(ctx)
}

// Publish broadcasts payload, reporting whether it was admitted by the
// node's rate allowance.
func (n *Node) Publish(payload []byte) bool { return n.m.publish(payload) }

// SetBufferCapacity resizes the local events buffer at runtime.
func (n *Node) SetBufferCapacity(capacity int) error {
	return n.m.setBufferCapacity(capacity)
}

// Snapshot captures the node's protocol state.
func (n *Node) Snapshot() NodeSnapshot { return n.m.snapshot() }

// Stats returns the unified counter snapshot (Nodes == 1).
func (n *Node) Stats() Stats {
	var st Stats
	st.add(n.m.snapshot())
	n.g.fill(&st)
	return st
}

// ClusterHealth returns the node's converged view of the cluster's
// gossip-disseminated health digests, sorted by member id — the node's
// own entry plus one per member it has heard a digest about. Empty
// unless Config.Observability.HealthDigests is set.
func (n *Node) ClusterHealth() []MemberHealth {
	return memberHealthView(n.m.clusterHealth())
}

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty. Useful with ":0"
// binds.
func (n *Node) DebugAddr() string { return n.g.obs.debugAddr() }
