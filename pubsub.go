package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/pubsub"
)

// Pub/sub re-exports.
type (
	// Topic names a broadcast group in the pub/sub layer.
	Topic = pubsub.Topic
	// TopicState is a per-subscription snapshot.
	TopicState = pubsub.TopicState
)

// PubSub is an in-process publish/subscribe group — the paper's
// motivating scenario as an API. Each topic is an independent adaptive
// broadcast group whose members are exactly the current subscribers;
// each member splits one buffer budget across its subscriptions, so
// every subscribe/unsubscribe shifts the resources the adaptation
// mechanism sees. Deliveries carry the Topic in both the WithDeliver
// callback and the Events stream.
type PubSub struct {
	g     *group
	names []NodeID
	peers []*pubsub.Peer // peers[i] is touched only inside g.runners[i].Do

	mu   sync.Mutex
	regs map[Topic]*membership.Registry // a topic's members are its subscribers
}

// NewPubSub builds n peers, each with the given total buffer budget,
// with the shared option set (WithSeed, WithDeliver, WithTransport,
// WithNamePrefix). No peer is subscribed to anything initially.
func NewPubSub(n, bufferBudget int, cfg Config, opts ...Option) (*PubSub, error) {
	g, err := newGroup(facadePubSub, groupOptions{seed: 1, prefix: "peer-"}, opts)
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, g.fail(fmt.Errorf("adaptivegossip: pub/sub group needs at least 2 peers, got %d", n))
	}
	cfg = cfg.withDefaults()
	gp := cfg.gossipParams()
	gp.MaxEvents = bufferBudget
	if err := gp.Validate(); err != nil {
		return nil, g.fail(fmt.Errorf("adaptivegossip: %w", err))
	}
	gp.MaxEvents = 0 // the budget drives per-topic capacity
	seed := g.opts.seed
	if err := g.open(cfg, seed+0x9A9A); err != nil {
		return nil, g.fail(err)
	}

	c := &PubSub{
		g:     g,
		names: memberNames(g.opts.prefix, n),
		regs:  make(map[Topic]*membership.Registry),
	}
	for i, name := range c.names {
		ep, err := g.endpoint(name)
		if err != nil {
			return nil, g.fail(err)
		}
		peer, err := pubsub.NewPeer(pubsub.PeerConfig{
			ID:           name,
			BufferBudget: bufferBudget,
			Gossip:       gp,
			Adaptive:     cfg.Adaptive,
			Core:         cfg.Adaptation,
			RNG:          rand.New(rand.NewPCG(uint64(seed), uint64(i)+1)),
			Deliver: func(topic Topic, ev Event) {
				g.deliver(Delivery{Node: name, Topic: topic, Event: ev})
			},
			Metrics: g.obs.node,
			Tracer:  g.obs.tracer(),
			Start:   time.Now(),
		})
		if err != nil {
			return nil, g.fail(err)
		}
		if _, err := g.run(peer, ep, cfg.Period, uint64(seed)*48271+uint64(i)+1); err != nil {
			return nil, g.fail(err)
		}
		c.peers = append(c.peers, peer)
	}
	if err := g.obs.bindServer(cfg.Observability.DebugAddr, c.Stats, c.ClusterHealth); err != nil {
		return nil, g.fail(err)
	}
	return c, nil
}

// Len reports the number of peers.
func (c *PubSub) Len() int { return len(c.peers) }

// Peers returns the peer names in index order.
func (c *PubSub) Peers() []NodeID {
	return append([]NodeID(nil), c.names...)
}

// Start launches every peer. Cancelling ctx closes the group; a closed
// group cannot be restarted. Idempotent while open — every context
// passed to Start is watched, so cancelling any of them closes the
// group. A transient endpoint failure may be retried: already started
// endpoints are not started twice.
func (c *PubSub) Start(ctx context.Context) error { return c.g.start(ctx) }

// Close terminates every peer, the fabric and every Events stream.
// Idempotent; later calls return nil.
func (c *PubSub) Close() error { return c.g.close() }

// Events returns a stream of every delivery in the group, with Topic
// set. From subscription onward the stream sees every delivery the
// WithDeliver callback sees; it is closed when ctx is cancelled or
// the group is closed. A subscriber that falls more than
// DefaultEventStreamBuffer behind loses deliveries (counted in
// Stats.StreamDropped).
func (c *PubSub) Events(ctx context.Context) <-chan Delivery {
	return c.g.hub.subscribe(ctx)
}

// do runs fn on peer i inside the peer's loop and returns its error; it
// fails when i is out of range or the group is not running.
func (c *PubSub) do(i int, fn func(p *pubsub.Peer) error) error {
	if err := checkIndex("peer", i, len(c.peers)); err != nil {
		return err
	}
	err := errNotRunning
	c.g.runners[i].Do(func() { err = fn(c.peers[i]) })
	return err
}

func (c *PubSub) registry(topic Topic) *membership.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	reg, ok := c.regs[topic]
	if !ok {
		reg = membership.NewRegistry()
		c.regs[topic] = reg
	}
	return reg
}

// Subscribe joins peer i to a topic: the peer becomes a gossip target
// for the topic's other subscribers and re-splits its buffer budget.
func (c *PubSub) Subscribe(i int, topic Topic) error {
	return c.do(i, func(p *pubsub.Peer) error {
		reg := c.registry(topic)
		if err := p.Subscribe(topic, reg); err != nil {
			return err
		}
		reg.Add(c.names[i])
		return nil
	})
}

// Unsubscribe removes peer i from a topic, returning its budget share
// to the remaining subscriptions.
func (c *PubSub) Unsubscribe(i int, topic Topic) error {
	return c.do(i, func(p *pubsub.Peer) error {
		if err := p.Unsubscribe(topic); err != nil {
			return err
		}
		c.registry(topic).Remove(c.names[i])
		return nil
	})
}

// Publish broadcasts payload from peer i on topic, reporting admission.
func (c *PubSub) Publish(i int, topic Topic, payload []byte) (bool, error) {
	var admitted bool
	err := c.do(i, func(p *pubsub.Peer) (err error) {
		_, admitted, err = p.Publish(topic, payload, time.Now())
		return err
	})
	return admitted, err
}

// State snapshots peer i's subscriptions.
func (c *PubSub) State(i int) ([]TopicState, error) {
	if err := checkIndex("peer", i, len(c.peers)); err != nil {
		return nil, err
	}
	return c.state(i), nil
}

// state snapshots peer i's subscriptions inside its loop (nil when the
// group is not running).
func (c *PubSub) state(i int) []TopicState {
	var out []TopicState
	c.g.runners[i].Do(func() { out = c.peers[i].State() })
	return out
}

// Stats aggregates the unified counter snapshot across all peers and
// topics: Nodes counts peers, the rate triple summarizes per-topic
// allowances.
func (c *PubSub) Stats() Stats {
	var st Stats
	for i := range c.peers {
		for _, ts := range c.state(i) {
			st.addRates(ts.AllowedRate)
			st.Published += ts.Adaptive.Published
			st.Throttled += ts.Adaptive.Throttled
			st.Delivered += ts.Gossip.Delivered
			st.DroppedCapacity += ts.Gossip.DroppedCapacity
			st.DroppedExpired += ts.Gossip.DroppedExpired
			st.MessagesSent += ts.Gossip.MessagesSent
		}
	}
	st.Nodes = len(c.peers)
	c.g.fill(&st)
	return st
}

// ClusterHealth returns the group's converged health view — the same
// shape the other facades expose, so monitoring code is deployment
// agnostic. Topic-level groups do not disseminate health digests (a
// peer's budget re-splits across subscriptions faster than digests
// would converge), so the view is always empty.
func (c *PubSub) ClusterHealth() []MemberHealth { return nil }

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty.
func (c *PubSub) DebugAddr() string { return c.g.obs.debugAddr() }
