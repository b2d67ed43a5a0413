package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/gossip"
)

// NetworkStats counts traffic through the simulated network.
type NetworkStats struct {
	Sent        uint64
	Delivered   uint64
	LossDropped uint64
	DownDropped uint64
	Filtered    uint64
	Unrouted    uint64
	// Per-kind send counts, for measuring the control-plane subsystems'
	// wire overhead (anti-entropy recovery, failure detection) against
	// the push-gossip baseline traffic.
	GossipSent           uint64
	RecoveryRequestSent  uint64
	RecoveryResponseSent uint64
	PingSent             uint64
	PingAckSent          uint64
	PingReqSent          uint64
	// Region traffic split (topology runs only, see WithTopology):
	// sends whose endpoints sit in the same region versus different
	// regions. The byte counters need a message sizer (WithMessageSizer)
	// and stay zero without one.
	IntraRegionSent  uint64
	CrossRegionSent  uint64
	IntraRegionBytes uint64
	CrossRegionBytes uint64
}

// Merge adds another run's counters into s (seed-sweep pooling).
func (s *NetworkStats) Merge(o NetworkStats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.LossDropped += o.LossDropped
	s.DownDropped += o.DownDropped
	s.Filtered += o.Filtered
	s.Unrouted += o.Unrouted
	s.GossipSent += o.GossipSent
	s.RecoveryRequestSent += o.RecoveryRequestSent
	s.RecoveryResponseSent += o.RecoveryResponseSent
	s.PingSent += o.PingSent
	s.PingAckSent += o.PingAckSent
	s.PingReqSent += o.PingReqSent
	s.IntraRegionSent += o.IntraRegionSent
	s.CrossRegionSent += o.CrossRegionSent
	s.IntraRegionBytes += o.IntraRegionBytes
	s.CrossRegionBytes += o.CrossRegionBytes
}

// ProbeSent totals the failure-detection control messages.
func (s NetworkStats) ProbeSent() uint64 {
	return s.PingSent + s.PingAckSent + s.PingReqSent
}

// LatencyClass bounds one link class's delivery latency: uniform in
// [Min, Max].
type LatencyClass struct {
	Min, Max time.Duration
}

// Validate reports the first bound error.
func (c LatencyClass) Validate() error {
	if c.Min < 0 || c.Max < c.Min {
		return fmt.Errorf("sim: invalid latency class [%v, %v]", c.Min, c.Max)
	}
	return nil
}

// Topology is an optional region-based latency model: every node is
// assigned to a region (SetRegion), and each ordered region pair maps to
// a latency class, replacing the network's single uniform latency range
// for classified links. This is the WAN model of the scale experiments:
// cheap intra-region links, expensive cross-region ones, with
// NetworkStats splitting traffic accordingly.
type Topology struct {
	// Regions is the number of regions; SetRegion accepts [0, Regions).
	Regions int
	// Classes[from][to] is the latency class of links from region
	// "from" to region "to". Must be Regions x Regions.
	Classes [][]LatencyClass
}

// NewTwoTierTopology builds the common two-class model: intra for links
// within a region, inter for links between distinct regions.
func NewTwoTierTopology(regions int, intra, inter LatencyClass) Topology {
	classes := make([][]LatencyClass, regions)
	for i := range classes {
		classes[i] = make([]LatencyClass, regions)
		for j := range classes[i] {
			if i == j {
				classes[i][j] = intra
			} else {
				classes[i][j] = inter
			}
		}
	}
	return Topology{Regions: regions, Classes: classes}
}

// Validate reports the first topology error.
func (t Topology) Validate() error {
	if t.Regions <= 0 {
		return fmt.Errorf("sim: topology needs at least 1 region, got %d", t.Regions)
	}
	if len(t.Classes) != t.Regions {
		return fmt.Errorf("sim: topology has %d class rows for %d regions", len(t.Classes), t.Regions)
	}
	for i, row := range t.Classes {
		if len(row) != t.Regions {
			return fmt.Errorf("sim: topology class row %d has %d entries for %d regions", i, len(row), t.Regions)
		}
		for j, c := range row {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("sim: topology class [%d][%d]: %w", i, j, err)
			}
		}
	}
	return nil
}

// Network is the simulated message fabric: point-to-point delivery with
// uniform random latency, independent (iid) loss, per-node down state
// and an optional link filter for partition experiments. The paper's
// probabilistic guarantees assume independently distributed loss (§2);
// the loss model here matches that assumption.
//
// Node identifiers are interned to dense indices on first contact
// (Attach, SetRegion, or appearing in a Send), so the delivery path —
// down-state bitset, handler table, per-kind counters — is slice-indexed
// and allocation-free: sends carry a typed delivery record through the
// scheduler's event slab instead of a capture closure.
type Network struct {
	sched  *Scheduler
	rng    *rand.Rand
	latMin time.Duration
	latMax time.Duration
	loss   float64
	filter func(from, to gossip.NodeID) bool
	topo   *Topology
	sizer  func(*gossip.Message) int
	stats  NetworkStats

	// Interned node state, indexed by the dense id assigned at intern
	// time. A detached node keeps its index; its handler goes nil.
	index    map[gossip.NodeID]int32
	ids      []gossip.NodeID
	handlers []func(*gossip.Message)
	regions  []int32  // -1 = unassigned
	down     []uint64 // bitset
}

// NetworkOption configures a Network.
type NetworkOption func(*Network) error

// WithLatency sets the delivery latency bounds (uniform in [min, max]).
func WithLatency(min, max time.Duration) NetworkOption {
	return func(n *Network) error {
		if err := (LatencyClass{Min: min, Max: max}).Validate(); err != nil {
			return fmt.Errorf("sim: invalid latency bounds [%v, %v]", min, max)
		}
		n.latMin, n.latMax = min, max
		return nil
	}
}

// WithLoss sets the iid message loss probability.
func WithLoss(p float64) NetworkOption {
	return func(n *Network) error {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("sim: loss probability %v out of [0,1]", p)
		}
		n.loss = p
		return nil
	}
}

// WithTopology installs a region latency model. Links whose endpoints
// both have a region (SetRegion) draw latency from the region pair's
// class and are counted in the Intra/CrossRegion stats; unclassified
// links keep the uniform WithLatency bounds.
func WithTopology(t Topology) NetworkOption {
	return func(n *Network) error {
		if err := t.Validate(); err != nil {
			return err
		}
		n.topo = &t
		return nil
	}
}

// WithMessageSizer installs the byte-size estimator behind the
// Intra/CrossRegionBytes counters — typically a wire codec's
// EncodedSize, so the simulated WAN traffic split is measured in real
// encoded bytes. Without it the region byte counters stay zero.
func WithMessageSizer(size func(*gossip.Message) int) NetworkOption {
	return func(n *Network) error {
		if size == nil {
			return fmt.Errorf("sim: message sizer must not be nil")
		}
		n.sizer = size
		return nil
	}
}

// NewNetwork creates a network driven by sched with randomness from rng.
func NewNetwork(sched *Scheduler, rng *rand.Rand, opts ...NetworkOption) (*Network, error) {
	if sched == nil || rng == nil {
		return nil, fmt.Errorf("sim: scheduler and rng must not be nil")
	}
	n := &Network{
		sched: sched,
		rng:   rng,
		index: make(map[gossip.NodeID]int32),
	}
	for _, opt := range opts {
		if err := opt(n); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// intern returns the dense index of id, assigning one on first contact.
func (n *Network) intern(id gossip.NodeID) int32 {
	if i, ok := n.index[id]; ok {
		return i
	}
	i := int32(len(n.ids))
	n.index[id] = i
	n.ids = append(n.ids, id)
	n.handlers = append(n.handlers, nil)
	n.regions = append(n.regions, -1)
	if int(i)/64 >= len(n.down) {
		n.down = append(n.down, 0)
	}
	return i
}

func (n *Network) isDown(i int32) bool {
	return n.down[i/64]&(1<<(uint(i)%64)) != 0
}

// Attach registers the delivery handler for a node.
func (n *Network) Attach(id gossip.NodeID, handler func(*gossip.Message)) {
	n.handlers[n.intern(id)] = handler
}

// SetDown marks a node unreachable (crash simulation). Messages to and
// from a down node are dropped.
func (n *Network) SetDown(id gossip.NodeID, down bool) {
	i := n.intern(id)
	if down {
		n.down[i/64] |= 1 << (uint(i) % 64)
	} else {
		n.down[i/64] &^= 1 << (uint(i) % 64)
	}
}

// SetRegion assigns a node to a topology region (see WithTopology).
func (n *Network) SetRegion(id gossip.NodeID, region int) error {
	if n.topo == nil {
		return fmt.Errorf("sim: SetRegion without a topology (WithTopology)")
	}
	if region < 0 || region >= n.topo.Regions {
		return fmt.Errorf("sim: region %d out of [0, %d)", region, n.topo.Regions)
	}
	n.regions[n.intern(id)] = int32(region)
	return nil
}

// SetLinkFilter installs a predicate; links for which it returns false
// drop all traffic. Pass nil to clear.
func (n *Network) SetLinkFilter(filter func(from, to gossip.NodeID) bool) {
	n.filter = filter
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// MaxLatency is the longest a message can stay in flight: the upper
// WithLatency bound or the slowest WithTopology class, whichever is
// larger.
func (n *Network) MaxLatency() time.Duration {
	longest := n.latMax
	if n.topo != nil {
		for _, row := range n.topo.Classes {
			for _, c := range row {
				longest = max(longest, c.Max)
			}
		}
	}
	return longest
}

// Drive runs a protocol machine on the fabric — the simulator's
// counterpart of runtime.Runner. Messages delivered to m's id are fed to
// m.Receive; m.Tick runs every period, the first time phase from now;
// whatever either returns is routed through Send. While the node is down
// (SetDown) its ticks are skipped but the timer keeps running, so a
// restarted node resumes at its old phase: a crashed process executes
// nothing.
//
// Drive is the one place the scratch-lifetime rule of gossip.Machine
// meets a fabric that holds a message until its delivery instant.
// Control messages (every kind but KindGossip, and everything Receive
// returns) are scratch until the machine's next call, so each is copied.
// The round message is scratch until the next Tick, so it rides uncopied
// while every delivery lands within the period, and is copied once per
// round when MaxLatency can outlive it.
func (n *Network) Drive(m gossip.Machine, period, phase time.Duration) {
	d := &driven{net: n, m: m, id: m.ID(), period: period, copyRounds: n.MaxLatency() >= period}
	d.idx = n.intern(d.id)
	d.tickFn = d.tick
	n.handlers[d.idx] = d.receive
	n.sched.After(phase, d.tickFn)
}

// driven is one machine under Drive.
type driven struct {
	net        *Network
	m          gossip.Machine
	id         gossip.NodeID
	idx        int32
	period     time.Duration
	copyRounds bool
	tickFn     func() // d.tick, bound once so rescheduling allocates nothing
}

func (d *driven) tick() {
	n := d.net
	if !n.isDown(d.idx) {
		var round, roundCopy *gossip.Message
		for _, out := range d.m.Tick(n.sched.Now()) {
			msg := out.Msg
			switch {
			case msg.Kind != gossip.KindGossip:
				msg = msg.CopyForSend()
			case d.copyRounds:
				if msg != round {
					round, roundCopy = msg, msg.CopyForSend()
				}
				msg = roundCopy
			}
			n.Send(d.id, out.To, msg)
		}
	}
	n.sched.After(d.period, d.tickFn)
}

// receive is the delivery handler. It runs for every message delivered
// and mostly has nothing to send: with the copy loop inlined here,
// sim_paper of gossipbench (no extension on, so no control message at
// all) ran a tenth slower.
func (d *driven) receive(msg *gossip.Message) {
	if outs := d.m.Receive(msg, d.net.sched.Now()); len(outs) > 0 {
		d.net.sendCopies(d.id, outs)
	}
}

func (n *Network) sendCopies(from gossip.NodeID, outs []gossip.Outgoing) {
	for _, out := range outs {
		n.Send(from, out.To, out.Msg.CopyForSend())
	}
}

// Send routes a message, applying down state, the link filter, loss and
// latency. Delivery re-checks the destination's state at arrival time.
// The steady-state path allocates nothing: the in-flight message rides a
// typed delivery record in the scheduler's event slab.
func (n *Network) Send(from, to gossip.NodeID, msg *gossip.Message) {
	n.stats.Sent++
	switch msg.Kind {
	case gossip.KindRecoveryRequest:
		n.stats.RecoveryRequestSent++
	case gossip.KindRecoveryResponse:
		n.stats.RecoveryResponseSent++
	case gossip.KindPing:
		n.stats.PingSent++
	case gossip.KindPingAck:
		n.stats.PingAckSent++
	case gossip.KindPingReq:
		n.stats.PingReqSent++
	default:
		n.stats.GossipSent++
	}
	fi, ti := n.intern(from), n.intern(to)
	if n.isDown(fi) || n.isDown(ti) {
		n.stats.DownDropped++
		return
	}
	if n.filter != nil && !n.filter(from, to) {
		n.stats.Filtered++
		return
	}
	if n.loss > 0 && n.rng.Float64() < n.loss {
		n.stats.LossDropped++
		return
	}
	latMin, latMax := n.latMin, n.latMax
	if n.topo != nil {
		fr, tr := n.regions[fi], n.regions[ti]
		if fr >= 0 && tr >= 0 {
			class := n.topo.Classes[fr][tr]
			latMin, latMax = class.Min, class.Max
			var size uint64
			if n.sizer != nil {
				size = uint64(n.sizer(msg))
			}
			if fr == tr {
				n.stats.IntraRegionSent++
				n.stats.IntraRegionBytes += size
			} else {
				n.stats.CrossRegionSent++
				n.stats.CrossRegionBytes += size
			}
		}
	}
	lat := latMin
	if latMax > latMin {
		lat += time.Duration(n.rng.Int64N(int64(latMax - latMin + 1)))
	}
	n.sched.scheduleDelivery(lat, n, ti, msg)
}

// deliver lands a message on the interned destination at its delivery
// instant: the slab event's execution.
func (n *Network) deliver(to int32, msg *gossip.Message) {
	if n.isDown(to) {
		n.stats.DownDropped++
		return
	}
	h := n.handlers[to]
	if h == nil {
		n.stats.Unrouted++
		return
	}
	n.stats.Delivered++
	h(msg)
}
