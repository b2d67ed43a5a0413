package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"

	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
)

// Cluster is an in-process broadcast group: one goroutine-driven node
// per member, connected by a pluggable message fabric — real loopback
// UDP by default, any custom Transport via WithTransport. It is the
// quickest way to exercise the protocol and the backbone of the
// examples.
type Cluster struct {
	g       *group
	names   []NodeID
	members []*member
}

// NewCluster builds an n-node cluster with the given configuration and
// the shared option set (WithSeed, WithDeliver, WithTransport,
// WithOnMemberChange, WithNamePrefix). Call Start to begin gossiping
// and Close to tear everything down.
func NewCluster(n int, cfg Config, opts ...Option) (*Cluster, error) {
	g, err := newGroup(facadeCluster, groupOptions{seed: 1, prefix: "node-"}, opts)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, g.fail(fmt.Errorf("adaptivegossip: cluster needs at least 2 nodes, got %d", n))
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, g.fail(err)
	}
	seed := g.opts.seed
	if err := g.open(cfg, seed); err != nil {
		return nil, g.fail(err)
	}

	c := &Cluster{g: g, names: make([]NodeID, n)}
	for i := range c.names {
		c.names[i] = NodeID(fmt.Sprintf("%s%02d", g.opts.prefix, i))
	}
	// With failure detection, each node owns its membership view so a
	// detector's verdicts evict from (and re-admit to) that node's
	// gossip targets only. Without it the views never diverge, so all
	// nodes share one registry.
	var shared *membership.Registry
	if !cfg.Failure.Enabled {
		shared = membership.NewRegistry(c.names...)
	}
	for i, name := range c.names {
		reg := shared
		if reg == nil {
			reg = membership.NewRegistry(c.names...)
		}
		m, err := g.newMember(name, cfg, reg,
			rand.New(rand.NewPCG(uint64(seed), uint64(i)+1)),
			uint64(seed)*2_654_435_761+uint64(i)+1)
		if err != nil {
			return nil, g.fail(err)
		}
		c.members = append(c.members, m)
	}
	if err := g.obs.bindServer(cfg.Observability.DebugAddr, c.Stats, c.ClusterHealth); err != nil {
		return nil, g.fail(err)
	}
	return c, nil
}

// Len reports the cluster size.
func (c *Cluster) Len() int { return len(c.members) }

// Nodes returns the member names in index order.
func (c *Cluster) Nodes() []NodeID {
	return append([]NodeID(nil), c.names...)
}

// Start launches every node. Cancelling ctx closes the cluster; a
// closed cluster cannot be restarted. Idempotent while open — every
// context passed to Start is watched, so cancelling any of them closes
// the cluster. A transient endpoint failure may be retried: already
// started endpoints are not started twice.
func (c *Cluster) Start(ctx context.Context) error { return c.g.start(ctx) }

// Close terminates every node, the fabric and every Events stream.
// Idempotent; later calls return nil.
func (c *Cluster) Close() error { return c.g.close() }

// Events returns a stream of every delivery in the cluster. From
// subscription onward the stream sees every delivery the WithDeliver
// callback sees; it is closed when ctx is cancelled or the cluster is
// closed. A subscriber that falls more than DefaultEventStreamBuffer
// behind loses deliveries (counted in Stats.StreamDropped).
func (c *Cluster) Events(ctx context.Context) <-chan Delivery {
	return c.g.hub.subscribe(ctx)
}

func (c *Cluster) member(i int) (*member, error) {
	if i < 0 || i >= len(c.members) {
		return nil, fmt.Errorf("adaptivegossip: node index %d out of range [0,%d)", i, len(c.members))
	}
	return c.members[i], nil
}

// Publish broadcasts payload from node i, reporting whether the
// message was admitted (adaptive nodes rate-limit at the allowance).
func (c *Cluster) Publish(i int, payload []byte) bool {
	m, err := c.member(i)
	if err != nil {
		return false
	}
	return m.publish(payload)
}

// SetBufferCapacity resizes node i's buffer at runtime — the paper's
// dynamic-resource scenario.
func (c *Cluster) SetBufferCapacity(i, capacity int) error {
	m, err := c.member(i)
	if err != nil {
		return err
	}
	return m.setBufferCapacity(capacity)
}

// Snapshot captures node i's state.
func (c *Cluster) Snapshot(i int) (NodeSnapshot, error) {
	m, err := c.member(i)
	if err != nil {
		return NodeSnapshot{}, err
	}
	return m.snapshot(), nil
}

// Members returns node i's current gossip target set (itself
// included). With Config.Failure.Enabled, confirmed-crashed members
// disappear from the node's view and rejoining members return to it;
// otherwise all nodes share one static view.
func (c *Cluster) Members(i int) ([]NodeID, error) {
	m, err := c.member(i)
	if err != nil {
		return nil, err
	}
	return m.reg.IDs(), nil
}

// Stats aggregates the unified counter snapshot across the cluster.
func (c *Cluster) Stats() Stats {
	var st Stats
	for _, m := range c.members {
		st.add(m.snapshot())
	}
	c.g.fill(&st)
	return st
}

// ClusterHealth returns the converged health view, sorted by member
// id: every member's independently gossip-learned digests merged, the
// freshest digest winning per member. Empty unless
// Config.Observability.HealthDigests is set.
func (c *Cluster) ClusterHealth() []MemberHealth {
	views := make([][]health.MemberHealth, 0, len(c.members))
	for _, m := range c.members {
		views = append(views, m.clusterHealth())
	}
	return memberHealthView(mergeMemberHealth(views...))
}

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty.
func (c *Cluster) DebugAddr() string { return c.g.obs.debugAddr() }
