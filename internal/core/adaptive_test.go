package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
)

var start = time.Unix(0, 0).UTC()

// fullPeers samples from a fixed list.
type fullPeers []gossip.NodeID

func (f fullPeers) AppendPeers(dst []gossip.NodeID, self gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	out := make([]gossip.NodeID, 0, k)
	for _, p := range f {
		if p != self {
			out = append(out, p)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > k {
		out = out[:k]
	}
	return append(dst, out...)
}

func nodeConfig(id gossip.NodeID, peers gossip.PeerSampler, adaptive bool) NodeConfig {
	gp := gossip.Params{Fanout: 2, Period: time.Second, MaxEvents: 10, MaxAge: 8}
	cp := DefaultParams()
	cp.InitialRate = 5
	return NodeConfig{
		ID:       id,
		Gossip:   gp,
		Adaptive: adaptive,
		Core:     cp,
		Peers:    peers,
		RNG:      rand.New(rand.NewPCG(uint64(len(id)), 77)),
		Start:    start,
	}
}

func TestNewAdaptiveNodeValidation(t *testing.T) {
	peers := fullPeers{"a", "b"}
	cfg := nodeConfig("a", peers, true)
	cfg.Core.Window = 0
	if _, err := NewAdaptiveNode(cfg); err == nil {
		t.Fatal("bad core params accepted")
	}
	cfg = nodeConfig("", peers, false)
	if _, err := NewAdaptiveNode(cfg); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestBaselineNodeAdmitsEverything(t *testing.T) {
	n, err := NewAdaptiveNode(nodeConfig("a", fullPeers{"a", "b"}, false))
	if err != nil {
		t.Fatal(err)
	}
	if n.Adaptive() {
		t.Fatal("baseline node reports adaptive")
	}
	for i := 0; i < 100; i++ {
		if _, ok := n.Publish(nil, start); !ok {
			t.Fatal("baseline throttled a publish")
		}
	}
	if n.AllowedRate() != 0 || n.AvgAge() != 0 || n.MinBuffEstimate() != 0 || n.SamplePeriod() != 0 {
		t.Fatal("baseline node leaks adaptation state")
	}
	st := n.Stats()
	if st.Published != 100 || st.Throttled != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAdaptiveNodeThrottlesAtBucketRate(t *testing.T) {
	n, err := NewAdaptiveNode(nodeConfig("a", fullPeers{"a", "b"}, true))
	if err != nil {
		t.Fatal(err)
	}
	burst := int(math.Floor(bucketMax))
	admitted := 0
	// Offer 100 messages instantaneously: only the initial burst
	// (bucket capacity) is admitted.
	for i := 0; i < 100; i++ {
		if _, ok := n.Publish(nil, start); ok {
			admitted++
		}
	}
	if admitted != burst {
		t.Fatalf("admitted %d, want bucket burst %d", admitted, burst)
	}
	// Much later the bucket has refilled, but only to its capacity.
	more := 0
	for i := 0; i < 100; i++ {
		if _, ok := n.Publish(nil, start.Add(time.Minute)); ok {
			more++
		}
	}
	if more != burst {
		t.Fatalf("admitted %d after refill, want %d", more, burst)
	}
	st := n.Stats()
	if st.Published != uint64(2*burst) || st.Throttled != uint64(200-2*burst) {
		t.Fatalf("stats %+v", st)
	}
}

func TestAdaptiveNodeHeaderStamping(t *testing.T) {
	n, err := NewAdaptiveNode(nodeConfig("a", fullPeers{"a", "b"}, true))
	if err != nil {
		t.Fatal(err)
	}
	n.Publish(nil, start)
	outs := n.Tick(start)
	if len(outs) == 0 {
		t.Fatal("no outgoing gossip")
	}
	msg := outs[0].Msg
	if len(msg.MinBuff) == 0 {
		t.Fatal("adaptation header missing")
	}
	if want := (gossip.BuffCap{Node: "a", Cap: 10}); msg.MinBuff[0] != want {
		t.Fatalf("header minBuff = %+v, want local capacity %+v", msg.MinBuff, want)
	}
}

// TestAdaptiveNodeHeaderNamesOwner: at the paper's κ = 1 a relayed
// header still names the member that owns the minimum. In the chain
// A(30) → B(120) → C(120), B's round header is [(A, 30)], not B
// itself, and C's estimate is 30.
func TestAdaptiveNodeHeaderNamesOwner(t *testing.T) {
	newNode := func(id gossip.NodeID, next gossip.NodeID, capacity int) *AdaptiveNode {
		cfg := nodeConfig(id, fullPeers{id, next}, true)
		cfg.Gossip.MaxEvents = capacity
		n, err := NewAdaptiveNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b, c := newNode("A", "B", 30), newNode("B", "C", 120), newNode("C", "A", 120)
	now := start.Add(time.Second)
	relay := func(from, to *AdaptiveNode) []gossip.BuffCap {
		outs := from.Tick(now)
		if len(outs) == 0 {
			t.Fatal("no gossip after a tick")
		}
		to.Receive(outs[0].Msg, now)
		return outs[0].Msg.MinBuff
	}
	relay(a, b)
	if got, want := relay(b, c), []gossip.BuffCap{{Node: "A", Cap: 30}}; !slices.Equal(got, want) {
		t.Fatalf("B's round header = %+v, want %+v", got, want)
	}
	if got := c.MinBuffEstimate(); got != 30 {
		t.Fatalf("C's estimate = %d, want 30", got)
	}
}

func TestAdaptiveNodeMinBuffPropagation(t *testing.T) {
	peers := fullPeers{"a", "b"}
	na, _ := NewAdaptiveNode(nodeConfig("a", peers, true))
	nb, _ := NewAdaptiveNode(nodeConfig("b", peers, true))
	if err := nb.SetBufferCapacity(4); err != nil {
		t.Fatal(err)
	}
	now := start
	for round := 0; round < 3; round++ {
		now = now.Add(time.Second)
		for _, out := range nb.Tick(now) {
			if out.To == "a" {
				na.Receive(out.Msg, now)
			}
		}
	}
	if got := na.MinBuffEstimate(); got != 4 {
		t.Fatalf("a's minBuff estimate = %d, want b's capacity 4", got)
	}
}

func TestAdaptiveNodeCongestionLowersRate(t *testing.T) {
	peers := fullPeers{"a", "b"}
	n, err := NewAdaptiveNode(nodeConfig("a", peers, true))
	if err != nil {
		t.Fatal(err)
	}
	initial := n.AllowedRate()
	// Flood the node with young events from a peer claiming a tiny
	// buffer: the virtual overflow consists of young events, so avgAge
	// collapses and the controller must decrease.
	now := start
	var seq uint64
	for round := 0; round < 12; round++ {
		now = now.Add(time.Second)
		events := make([]gossip.Event, 8)
		for i := range events {
			events[i] = gossip.Event{ID: gossip.EventID{Origin: "b", Seq: seq}, Age: 1}
			seq++
		}
		n.Receive(&gossip.Message{
			From: "b", SamplePeriod: 0, MinBuff: []gossip.BuffCap{{Node: "b", Cap: 3}}, Events: events,
		}, now)
		// Keep the bucket drained so the unused-allowance guard stays
		// quiet and the age signal drives the decision.
		for {
			if _, ok := n.Publish(nil, now); !ok {
				break
			}
		}
		n.Tick(now)
	}
	if got := n.AllowedRate(); got >= initial {
		t.Fatalf("allowed rate %v did not fall below initial %v under congestion", got, initial)
	}
	if n.AvgAge() >= lowAge {
		t.Fatalf("avgAge = %v, want below low mark", n.AvgAge())
	}
}

func TestAdaptiveNodeUnusedAllowanceShrinks(t *testing.T) {
	cfg := nodeConfig("a", fullPeers{"a", "b"}, true)
	n, err := NewAdaptiveNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := n.AllowedRate()
	// Publish nothing: tokens pool up, avgTokens rises, rate shrinks —
	// the inflated-allowance guard of §3.3.
	now := start
	for round := 0; round < 20; round++ {
		now = now.Add(time.Second)
		n.Tick(now)
	}
	if got := n.AllowedRate(); got >= initial {
		t.Fatalf("idle sender's allowance %v did not shrink from %v", got, initial)
	}
}

func TestAdaptiveNodeOptimisticDriftRecovers(t *testing.T) {
	cfg := nodeConfig("a", fullPeers{"a", "b"}, true)
	n, err := NewAdaptiveNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Push avgAge down artificially via congested traffic, then go
	// quiet: drift must pull avgAge back up toward the age bound.
	now := start
	events := make([]gossip.Event, 12)
	for i := range events {
		events[i] = gossip.Event{ID: gossip.EventID{Origin: "b", Seq: uint64(i)}, Age: 0}
	}
	n.Receive(&gossip.Message{From: "b", MinBuff: []gossip.BuffCap{{Node: "b", Cap: 2}}, Events: events}, now)
	low := n.AvgAge()
	for round := 0; round < 30; round++ {
		now = now.Add(time.Second)
		n.Tick(now)
	}
	if got := n.AvgAge(); got <= low {
		t.Fatalf("avgAge %v did not drift up from %v in an idle system", got, low)
	}
}

func TestAdaptiveNodeResizePropagatesToEstimator(t *testing.T) {
	n, err := NewAdaptiveNode(nodeConfig("a", fullPeers{"a", "b"}, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetBufferCapacity(6); err != nil {
		t.Fatal(err)
	}
	if got := n.MinBuffEstimate(); got != 6 {
		t.Fatalf("estimate = %d, want 6", got)
	}
	if got := n.BufferCapacity(); got != 6 {
		t.Fatalf("capacity = %d", got)
	}
	if err := n.SetBufferCapacity(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

// TestAdaptiveNodeKMinMode: the floor clamps the estimate at every κ,
// one tiny node does not drag a κ = 2 estimate down, and every κ sends
// min(κ, known) owner entries, the smallest first.
func TestAdaptiveNodeKMinMode(t *testing.T) {
	for _, tc := range []struct {
		rank int
		hdr  *gossip.Message
		want int
	}{
		// κ = 1: the tiny node's header sets the minimum, which the
		// floor lifts.
		{rank: 1, hdr: &gossip.Message{From: "tiny", MinBuff: []MinEntry{{Node: "tiny", Cap: 1}}}, want: 3},
		// κ = 2: one tiny node does not set the estimate; the local 10 does.
		{rank: 2, hdr: &gossip.Message{From: "tiny", MinBuff: []MinEntry{{Node: "tiny", Cap: 1}}}, want: 10},
	} {
		t.Run(fmt.Sprintf("rank-%d", tc.rank), func(t *testing.T) {
			cfg := nodeConfig("a", fullPeers{"a", "b"}, true)
			cfg.Core.MinBuffRank = tc.rank
			cfg.Core.MinBuffFloor = 3
			n, err := NewAdaptiveNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Receive(tc.hdr, start)
			if got := n.MinBuffEstimate(); got != tc.want {
				t.Fatalf("κ=%d estimate = %d, want %d", tc.rank, got, tc.want)
			}
			outs := n.Tick(start.Add(time.Second))
			if len(outs) == 0 {
				t.Fatal("no gossip after a tick")
			}
			// Two members are known: the tiny one and the local one.
			hdr := outs[0].Msg.MinBuff
			if len(hdr) != min(tc.rank, 2) || hdr[0] != (MinEntry{Node: "tiny", Cap: 1}) {
				t.Fatalf("κ=%d header = %+v, want min(κ, 2) entries led by tiny", tc.rank, hdr)
			}
		})
	}
}

// TestAdaptiveGroupConvergesUnderOverload runs a 12-node group at an
// offered load far above capacity and checks the aggregate allowed rate
// converges below the offered load while remaining positive — the
// Figure 6 behaviour in miniature.
func TestAdaptiveGroupConvergesUnderOverload(t *testing.T) {
	const (
		n           = 12
		offeredEach = 6.0 // msg/s per node, far above capacity
		rounds      = 120
	)
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%02d", i))
	}
	peers := fullPeers(names)
	nodes := make([]*AdaptiveNode, n)
	for i := range nodes {
		cfg := nodeConfig(names[i], peers, true)
		cfg.Gossip.MaxEvents = 12
		cfg.Gossip.Fanout = 3
		cfg.Core.InitialRate = offeredEach
		cfg.Core.MaxRate = offeredEach
		cfg.RNG = rand.New(rand.NewPCG(uint64(i), 1234))
		node, err := NewAdaptiveNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	now := start
	carry := make([]float64, n)
	for round := 0; round < rounds; round++ {
		now = now.Add(time.Second)
		// Offered load: each node attempts offeredEach publishes/s.
		for i, node := range nodes {
			carry[i] += offeredEach
			for carry[i] >= 1 {
				node.Publish(nil, now)
				carry[i]--
			}
		}
		// Gossip exchange.
		type envelope struct {
			to  gossip.NodeID
			msg *gossip.Message
		}
		var mail []envelope
		for _, node := range nodes {
			for _, out := range node.Tick(now) {
				mail = append(mail, envelope{out.To, out.Msg})
			}
		}
		for _, env := range mail {
			for i, name := range names {
				if name == env.to {
					nodes[i].Receive(env.msg, now)
				}
			}
		}
	}
	var aggregate float64
	for _, node := range nodes {
		aggregate += node.AllowedRate()
	}
	offered := offeredEach * n
	if aggregate >= offered*0.8 {
		t.Fatalf("aggregate allowed rate %v did not converge below offered %v", aggregate, offered)
	}
	if aggregate < 0.5 {
		t.Fatalf("aggregate allowed rate %v collapsed to the floor", aggregate)
	}
}

// BenchmarkAdaptorOnReceive measures the adaptation hook on the
// receive path (minBuff fold + congestion scan).
func BenchmarkAdaptorOnReceive(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	cp := DefaultParams()
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       "a",
		Gossip:   gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		Adaptive: true,
		Core:     cp,
		Peers:    reg,
		RNG:      rand.New(rand.NewPCG(7, 8)),
		Start:    time.Unix(0, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := make([]gossip.Event, 40)
		for j := range events {
			events[j] = gossip.Event{
				ID:  gossip.EventID{Origin: "b", Seq: uint64(i*40 + j)},
				Age: j % 10,
			}
		}
		node.Receive(&gossip.Message{
			From: "b", SamplePeriod: uint64(i / 6), MinBuff: []gossip.BuffCap{{Node: "b", Cap: 90}},
			Events: events,
		}, now)
		now = now.Add(10 * time.Millisecond)
	}
}
