package adaptivegossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
)

// NodeSnapshot is a point-in-time view of one node's state.
type NodeSnapshot = runtime.NodeSnapshot

// group is the one assembly and the one lifecycle behind both facades:
// a Node is a group of one member, a Cluster a group of n. It owns the
// fabric (from the moment WithTransport is applied), one endpoint and
// one runner per member, the Events hub and the instrumentation, and it
// is the only place that starts, watches and tears them down.
type group struct {
	opts    groupOptions
	fabric  *UDPTransport
	eps     []*transport.UDPTransport
	runners []*runtime.Runner // runners[i] drives the machine behind eps[i]
	hub     *streamHub
	obs     *groupObservability // nil until open

	mu      sync.Mutex
	started bool
	closed  bool
	done    chan struct{}
}

// errNotRunning answers calls that must run under a member's lock
// before Start or after Close.
var errNotRunning = errors.New("adaptivegossip: group is not running")

// newGroup folds opts over the facade's defaults. From here on every
// constructor failure goes through fail, so a handed-over transport is
// closed no matter where construction stops.
func newGroup(kind facadeKind, defaults groupOptions, opts []Option) (*group, error) {
	o, err := applyOptions(kind, defaults, opts)
	g := &group{opts: o, fabric: o.fabric, hub: newStreamHub(), done: make(chan struct{})}
	if err != nil {
		return nil, g.fail(err)
	}
	return g, nil
}

// fail releases what a half-built group already owns and passes err
// through.
func (g *group) fail(err error) error {
	if g.fabric != nil {
		g.fabric.Close()
	}
	if g.obs != nil {
		g.obs.close()
	}
	return err
}

// open settles the fabric — the loopback UDP fabric seeded with
// fabricSeed unless WithTransport supplied one — and builds the
// instrumentation.
func (g *group) open(cfg Config, fabricSeed int64) error {
	if g.fabric == nil {
		udp, err := NewUDPTransport(WithTransportSeed(fabricSeed))
		if err != nil {
			return err
		}
		g.fabric = udp
	}
	if err := applyTransportConfig(g.fabric, cfg.Transport); err != nil {
		return err
	}
	g.obs = newGroupObservability(cfg.Observability)
	return nil
}

// deliver feeds one delivery to the Events streams and the WithDeliver
// callback. It runs under the delivering member's lock.
func (g *group) deliver(d Delivery) {
	g.hub.publish(d)
	if g.opts.deliver != nil {
		g.opts.deliver(d)
	}
}

// member is one protocol node and the runner that owns it. After start
// the node is touched only inside runner.Do.
type member struct {
	reg    *membership.Registry
	node   *core.AdaptiveNode
	runner *runtime.Runner
}

// newMember attaches one more member to the group's fabric and link
// telemetry and binds its node to a runner, launched by start. reg is
// the member's gossip target set; detector verdicts maintain it
// (confirmed members stop receiving fanout, members that prove alive
// again are re-admitted) before WithOnMemberChange sees them.
func (g *group) newMember(name NodeID, cfg Config, reg *membership.Registry, rng *rand.Rand, phaseSeed uint64) (*member, error) {
	ep, err := g.fabric.net.Endpoint(name)
	if err != nil {
		return nil, err
	}
	g.eps = append(g.eps, ep)
	ep.SetLinks(g.obs.peers)
	onMember := g.opts.onMember
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       name,
		Gossip:   cfg.gossipParams(),
		Adaptive: cfg.Adaptive,
		Core:     cfg.Adaptation,
		Recovery: recovery.Params{Enabled: cfg.Recovery.Enabled},
		Failure:  cfg.Failure.params(cfg.Period),
		OnMembership: func(peer gossip.NodeID, status gossip.MemberStatus) {
			reg.ApplyVerdict(peer, status)
			if onMember != nil {
				onMember(name, peer, status)
			}
		},
		Peers:         reg,
		RNG:           rng,
		Deliver:       func(ev Event) { g.deliver(Delivery{Node: name, Event: ev}) },
		Metrics:       g.obs.node,
		Tracer:        g.obs.tracer(),
		Links:         g.obs.peers,
		Health:        health.Params{Enabled: cfg.Observability.HealthDigests},
		HealthAugment: healthAugment(ep),
		Start:         time.Now(),
	})
	if err != nil {
		return nil, err
	}
	r, err := runtime.NewRunner(runtime.Config{
		Node:      node,
		Transport: ep,
		Period:    cfg.Period,
		PhaseSeed: phaseSeed,
		Metrics:   g.obs.runner,
	})
	if err != nil {
		return nil, err
	}
	g.runners = append(g.runners, r)
	return &member{reg: reg, node: node, runner: r}, nil
}

// publish submits a broadcast through the node's admission control,
// reporting whether it was admitted (false also when the group is not
// running). Do runs the closure before it returns, so the closure does
// not escape and an offered publish allocates nothing.
func (m *member) publish(payload []byte) (admitted bool) {
	m.runner.Do(func() { _, admitted = m.node.Publish(payload, time.Now()) })
	return admitted
}

// setBufferCapacity resizes the node's buffer under the member's lock.
func (m *member) setBufferCapacity(capacity int) error {
	err := errNotRunning
	m.runner.Do(func() { err = m.node.SetBufferCapacity(capacity) })
	return err
}

// snapshot captures the node state under the member's lock; the zero
// snapshot when the group is not running.
func (m *member) snapshot() NodeSnapshot {
	var snap NodeSnapshot
	m.runner.Do(func() {
		n := m.node
		snap = NodeSnapshot{
			AllowedRate: n.AllowedRate(),
			AvgAge:      n.AvgAge(),
			MinBuff:     n.MinBuffEstimate(),
			BufferLen:   n.BufferLen(),
			BufferCap:   n.BufferCapacity(),
			Gossip:      n.GossipStats(),
			Adaptive:    n.Stats(),
			Recovery:    n.RecoveryStats(),
			Failure:     n.FailureStats(),
			Health:      n.HealthStats(),
		}
	})
	return snap
}

// clusterHealth returns the node's converged view of the cluster's
// health digests (nil when dissemination is disabled or the group is
// not running).
func (m *member) clusterHealth() []health.MemberHealth {
	var view []health.MemberHealth
	m.runner.Do(func() { view = m.node.ClusterHealth() })
	return view
}

// start launches every member and watches ctx.
func (g *group) start(ctx context.Context) error {
	if ctx == nil {
		return fmt.Errorf("adaptivegossip: nil context")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("adaptivegossip: %s closed", g.opts.kind.noun())
	}
	if !g.started {
		// Runners first: a datagram that reaches a member before its
		// runner is running is discarded.
		for _, r := range g.runners {
			r.Start()
		}
		for _, ep := range g.eps {
			if err := ep.Start(); err != nil {
				return err
			}
		}
		g.started = true
	}
	watchContext(ctx, g.done, g.close)
	return nil
}

// close stops every runner, then the endpoints, the fabric, the Events
// streams and the debug listener, returning the first error.
// Idempotent; later calls return nil.
func (g *group) close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.done)
	for _, r := range g.runners {
		r.Stop()
	}
	var first error
	for _, ep := range g.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := g.fabric.Close(); err != nil && first == nil {
		first = err
	}
	g.hub.close()
	g.obs.close()
	return first
}

// fill adds the counters both facades report the same way: messages
// discarded by members that were not running, Events stream drops, the
// fabric's wire counters and the per-peer link rows.
func (g *group) fill(st *Stats) {
	for _, r := range g.runners {
		st.InboxDropped += r.Stats().InboxDropped
	}
	st.StreamDropped = g.hub.droppedCount()
	st.Wire = g.fabric.Stats()
	st.addPeers(g.obs.peers)
}

// watchContext closes the group when ctx is cancelled, releasing the
// watcher when the group closes first.
func watchContext(ctx context.Context, done <-chan struct{}, closeFn func() error) {
	stop := ctx.Done()
	if stop == nil {
		return
	}
	go func() {
		select {
		case <-stop:
			closeFn()
		case <-done:
		}
	}()
}
