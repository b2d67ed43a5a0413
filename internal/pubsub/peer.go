// Package pubsub implements the motivating scenario of the paper's
// introduction: topic-based publish/subscribe where each topic maps to
// its own gossip broadcast group, nodes subscribe to several topics,
// and every node must divide its fixed buffer budget among its current
// subscriptions. Each subscription change re-splits the budget, the
// per-topic minBuff estimates pick the change up from gossip headers,
// and publishers' allowed rates re-converge — with no coordination
// beyond the adaptation mechanism itself.
package pubsub

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// Topic names a broadcast group.
type Topic string

// DeliverFunc receives each event of a subscribed topic exactly once.
type DeliverFunc func(topic Topic, ev gossip.Event)

// PeerConfig assembles a pub/sub peer.
type PeerConfig struct {
	// ID is the node identifier, shared across all topics.
	ID gossip.NodeID
	// BufferBudget is the total number of events this node can buffer
	// across all subscribed topics. Subscribe splits it evenly.
	BufferBudget int
	// Gossip is the per-topic protocol configuration; MaxEvents is
	// ignored (the budget drives it).
	Gossip gossip.Params
	// Adaptive enables the adaptation mechanism per topic.
	Adaptive bool
	// Core parametrizes the adaptation.
	Core core.Params
	// RNG drives protocol randomness across all topics.
	RNG *rand.Rand
	// Deliver observes deliveries (optional).
	Deliver DeliverFunc
	// Metrics, when non-nil, is shared by every topic's broadcast node:
	// hop/drop-age/round-size observations across topics pool into one
	// instrumentation block.
	Metrics *observe.NodeMetrics
	// Tracer, when non-nil, samples rumor lifecycles on every topic.
	Tracer observe.Tracer
	// Start is the creation instant.
	Start time.Time
}

// Peer is one node's pub/sub endpoint: an independent broadcast node
// per subscribed topic, sharing one buffer budget and one identity.
//
// Peer is a single-threaded state machine like the nodes it wraps (it
// is a gossip.Machine); a driver (runtime.Runner, or the simulator's
// sim.Network.Drive) serializes all calls.
type Peer struct {
	cfg    PeerConfig
	topics map[Topic]*core.AdaptiveNode
	order  []Topic           // stable iteration: subscription order
	out    []gossip.Outgoing // Tick's result, reused across rounds
}

// NewPeer validates the configuration and returns an unsubscribed peer.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("pubsub: peer id must not be empty")
	}
	if cfg.BufferBudget <= 0 {
		return nil, fmt.Errorf("pubsub: buffer budget must be positive, got %d", cfg.BufferBudget)
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("pubsub: rng must not be nil")
	}
	probe := cfg.Gossip
	probe.MaxEvents = cfg.BufferBudget
	if probe.MaxEventIDs == 0 {
		probe.MaxEventIDs = gossip.DefaultIDCacheMult * probe.MaxEvents
	}
	if err := probe.Validate(); err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	if cfg.Adaptive {
		if err := cfg.Core.Validate(); err != nil {
			return nil, fmt.Errorf("pubsub: %w", err)
		}
	}
	return &Peer{cfg: cfg, topics: make(map[Topic]*core.AdaptiveNode)}, nil
}

// ID returns the peer identifier.
func (p *Peer) ID() gossip.NodeID { return p.cfg.ID }

// Topics returns the subscribed topics in subscription order.
func (p *Peer) Topics() []Topic {
	return append([]Topic(nil), p.order...)
}

// Subscribed reports whether the peer participates in topic.
func (p *Peer) Subscribed(topic Topic) bool {
	_, ok := p.topics[topic]
	return ok
}

// BudgetPerTopic returns the events-buffer capacity each subscribed
// topic currently gets (the budget split evenly, at least 1).
func (p *Peer) BudgetPerTopic() int {
	n := len(p.topics)
	if n == 0 {
		return p.cfg.BufferBudget
	}
	per := p.cfg.BufferBudget / n
	if per < 1 {
		per = 1
	}
	return per
}

// Subscribe joins a topic's broadcast group, drawing gossip targets for
// it from peers. The buffer budget is re-split across all
// subscriptions, which the per-topic adaptation mechanisms observe as
// capacity changes — exactly the dynamic the paper's introduction
// motivates.
func (p *Peer) Subscribe(topic Topic, peers gossip.PeerSampler) error {
	if topic == "" {
		return fmt.Errorf("pubsub: topic must not be empty")
	}
	if peers == nil {
		return fmt.Errorf("pubsub: peer sampler must not be nil")
	}
	if _, dup := p.topics[topic]; dup {
		return fmt.Errorf("pubsub: already subscribed to %q", topic)
	}
	gp := p.cfg.Gossip
	gp.MaxEvents = p.cfg.BufferBudget // placeholder; rebalance sets the real split
	var deliver gossip.DeliverFunc
	if p.cfg.Deliver != nil {
		fn := p.cfg.Deliver
		deliver = func(ev gossip.Event) { fn(topic, ev) }
	}
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       p.cfg.ID,
		Gossip:   gp,
		Adaptive: p.cfg.Adaptive,
		Core:     p.cfg.Core,
		Peers:    peers,
		RNG:      p.cfg.RNG,
		Deliver:  deliver,
		Metrics:  p.cfg.Metrics,
		Tracer:   p.cfg.Tracer,
		Start:    p.cfg.Start,
	})
	if err != nil {
		return fmt.Errorf("pubsub: subscribe %q: %w", topic, err)
	}
	p.topics[topic] = node
	p.order = append(p.order, topic)
	return p.rebalance()
}

// Unsubscribe leaves a topic; the freed budget returns to the remaining
// subscriptions.
func (p *Peer) Unsubscribe(topic Topic) error {
	if _, ok := p.topics[topic]; !ok {
		return fmt.Errorf("pubsub: not subscribed to %q", topic)
	}
	delete(p.topics, topic)
	for i, t := range p.order {
		if t == topic {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.out = nil // do not pin the departed topic's round message
	return p.rebalance()
}

func (p *Peer) rebalance() error {
	per := p.BudgetPerTopic()
	for topic, node := range p.topics {
		if err := node.SetBufferCapacity(per); err != nil {
			return fmt.Errorf("pubsub: rebalance %q: %w", topic, err)
		}
	}
	return nil
}

// Publish broadcasts payload on a subscribed topic. The bool reports
// token-bucket admission.
func (p *Peer) Publish(topic Topic, payload []byte, now time.Time) (gossip.Event, bool, error) {
	node, ok := p.topics[topic]
	if !ok {
		return gossip.Event{}, false, fmt.Errorf("pubsub: not subscribed to %q", topic)
	}
	ev, admitted := node.Publish(payload, now)
	return ev, admitted, nil
}

// Tick runs one gossip round for every subscribed topic and returns all
// outgoing messages, each tagged with its topic. The result slice and
// the messages (the per-topic nodes' round scratch) are reused: both
// are valid only until the next Tick.
//
//gossip:hotpath
func (p *Peer) Tick(now time.Time) []gossip.Outgoing {
	p.out = p.out[:0]
	for _, topic := range p.order {
		p.out = append(p.out, tagged(p.topics[topic].Tick(now), string(topic))...)
	}
	return p.out
}

// Receive routes an incoming gossip message to its topic's node and
// returns whatever that node wants transmitted in response, tagged with
// the topic (nothing today: PeerConfig offers no recovery or failure
// knob, so topic nodes emit no control traffic). Messages for topics
// the peer no longer subscribes to are dropped.
//
//gossip:hotpath
func (p *Peer) Receive(msg *gossip.Message, now time.Time) []gossip.Outgoing {
	node, ok := p.topics[Topic(msg.Group)]
	if !ok {
		return nil
	}
	return tagged(node.Receive(msg, now), msg.Group)
}

// tagged stamps every message of outs with its topic's group name, so
// the receiving peer can route it. A round's outgoings share one
// message; control messages are distinct, hence the loop.
//
//gossip:hotpath
func tagged(outs []gossip.Outgoing, group string) []gossip.Outgoing {
	for i := range outs {
		outs[i].Msg.Group = group
	}
	return outs
}

// TopicState is a per-topic snapshot.
type TopicState struct {
	Topic       Topic
	BufferCap   int
	BufferLen   int
	AllowedRate float64
	AvgAge      float64
	MinBuff     int
	Gossip      gossip.NodeStats
	Adaptive    core.AdaptiveStats
}

// State snapshots every subscription, sorted by topic.
func (p *Peer) State() []TopicState {
	out := make([]TopicState, 0, len(p.topics))
	for topic, node := range p.topics {
		out = append(out, TopicState{
			Topic:       topic,
			BufferCap:   node.BufferCapacity(),
			BufferLen:   node.BufferLen(),
			AllowedRate: node.AllowedRate(),
			AvgAge:      node.AvgAge(),
			MinBuff:     node.MinBuffEstimate(),
			Gossip:      node.GossipStats(),
			Adaptive:    node.Stats(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}

// TopicNode exposes the underlying node of a subscription (tests,
// diagnostics).
func (p *Peer) TopicNode(topic Topic) (*core.AdaptiveNode, bool) {
	node, ok := p.topics[topic]
	return node, ok
}
