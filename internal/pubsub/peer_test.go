package pubsub

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
)

var t0 = time.Unix(0, 0).UTC()

func peerConfig(id string, budget int) PeerConfig {
	cp := core.DefaultParams()
	cp.InitialRate = 10
	return PeerConfig{
		ID:           gossip.NodeID(id),
		BufferBudget: budget,
		Gossip:       gossip.Params{Fanout: 3, Period: time.Second, MaxAge: 8},
		Adaptive:     true,
		Core:         cp,
		RNG:          rand.New(rand.NewPCG(uint64(len(id)), 99)),
		Start:        t0,
	}
}

func newPeer(t *testing.T, id string, budget int) *Peer {
	t.Helper()
	p, err := NewPeer(peerConfig(id, budget))
	if err != nil {
		t.Fatalf("NewPeer(%s): %v", id, err)
	}
	return p
}

func TestNewPeerValidation(t *testing.T) {
	cfg := peerConfig("a", 60)
	cfg.ID = ""
	if _, err := NewPeer(cfg); err == nil {
		t.Fatal("empty id accepted")
	}
	cfg = peerConfig("a", 0)
	if _, err := NewPeer(cfg); err == nil {
		t.Fatal("zero budget accepted")
	}
	cfg = peerConfig("a", 60)
	cfg.RNG = nil
	if _, err := NewPeer(cfg); err == nil {
		t.Fatal("nil rng accepted")
	}
	cfg = peerConfig("a", 60)
	cfg.Gossip.Fanout = 0
	if _, err := NewPeer(cfg); err == nil {
		t.Fatal("bad gossip params accepted")
	}
	cfg = peerConfig("a", 60)
	cfg.Core.Window = -1
	if _, err := NewPeer(cfg); err == nil {
		t.Fatal("bad core params accepted")
	}
}

func TestSubscribeSplitsBudget(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b")
	if p.BudgetPerTopic() != 60 {
		t.Fatalf("unsubscribed budget = %d", p.BudgetPerTopic())
	}
	for i, want := range []int{60, 30, 20} {
		if err := p.Subscribe(Topic(fmt.Sprintf("t%d", i)), reg); err != nil {
			t.Fatal(err)
		}
		if got := p.BudgetPerTopic(); got != want {
			t.Fatalf("after %d subscriptions: budget %d, want %d", i+1, got, want)
		}
		for _, st := range p.State() {
			if st.BufferCap != want {
				t.Fatalf("topic %s capacity %d, want %d", st.Topic, st.BufferCap, want)
			}
		}
	}
	// Unsubscribe returns the budget.
	if err := p.Unsubscribe("t1"); err != nil {
		t.Fatal(err)
	}
	if got := p.BudgetPerTopic(); got != 30 {
		t.Fatalf("after unsubscribe: budget %d, want 30", got)
	}
	if p.Subscribed("t1") {
		t.Fatal("t1 still subscribed")
	}
	if got := p.Topics(); len(got) != 2 || got[0] != "t0" || got[1] != "t2" {
		t.Fatalf("topics %v", got)
	}
}

func TestSubscribeErrors(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("", reg); err == nil {
		t.Fatal("empty topic accepted")
	}
	if err := p.Subscribe("t", nil); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if err := p.Subscribe("t", reg); err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe("t", reg); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if err := p.Unsubscribe("ghost"); err == nil {
		t.Fatal("unsubscribe from unknown topic accepted")
	}
}

func TestPublishRequiresSubscription(t *testing.T) {
	p := newPeer(t, "a", 60)
	if _, _, err := p.Publish("nope", nil, t0); err == nil {
		t.Fatal("publish to unsubscribed topic accepted")
	}
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("t", reg); err != nil {
		t.Fatal(err)
	}
	ev, admitted, err := p.Publish("t", []byte("x"), t0)
	if err != nil || !admitted {
		t.Fatalf("publish failed: %v admitted=%v", err, admitted)
	}
	if ev.ID.Origin != "a" {
		t.Fatalf("event %+v", ev)
	}
}

func TestTickTagsMessagesWithTopic(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b", "c")
	if err := p.Subscribe("alpha", reg); err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe("beta", reg); err != nil {
		t.Fatal(err)
	}
	p.Publish("alpha", []byte("1"), t0)
	p.Publish("beta", []byte("2"), t0)
	outs := p.Tick(t0)
	if len(outs) == 0 {
		t.Fatal("no outgoing gossip")
	}
	groups := map[string]bool{}
	for _, o := range outs {
		groups[o.Msg.Group] = true
	}
	if !groups["alpha"] || !groups["beta"] {
		t.Fatalf("topics missing from outgoing groups: %v", groups)
	}
}

// TestPeerTickAllocFree pins the pub/sub round path to the contract of
// the single-group one: once the per-topic round scratch and the peer's
// result slice are sized, a round over every subscription allocates
// nothing.
func TestPeerTickAllocFree(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b", "c", "d")
	for _, topic := range []Topic{"alpha", "beta"} {
		if err := p.Subscribe(topic, reg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			p.Publish(topic, []byte("payload"), t0)
		}
	}
	now := t0
	round := func() {
		now = now.Add(time.Second)
		if outs := p.Tick(now); len(outs) != 6 {
			t.Fatalf("round emitted %d outgoings, want fanout 3 on each of 2 topics", len(outs))
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state Peer.Tick allocates %v times per round, want 0", allocs)
	}
}

func TestReceiveRoutesByTopic(t *testing.T) {
	delivered := map[Topic]int{}
	cfg := peerConfig("b", 60)
	cfg.Deliver = func(topic Topic, ev gossip.Event) { delivered[topic]++ }
	p, err := NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("alpha", reg); err != nil {
		t.Fatal(err)
	}
	mkMsg := func(group string, seq uint64) *gossip.Message {
		return &gossip.Message{
			From: "a", Group: group,
			Events: []gossip.Event{{ID: gossip.EventID{Origin: "a", Seq: seq}, Age: 1}},
		}
	}
	p.Receive(mkMsg("alpha", 1), t0)
	p.Receive(mkMsg("beta", 2), t0) // not subscribed: dropped
	if delivered["alpha"] != 1 || delivered["beta"] != 0 {
		t.Fatalf("deliveries %v", delivered)
	}
	// Same (origin, seq) on different topics are distinct events.
	if err := p.Subscribe("beta", reg); err != nil {
		t.Fatal(err)
	}
	p.Receive(mkMsg("beta", 1), t0)
	if delivered["beta"] != 1 {
		t.Fatalf("cross-topic id collision: %v", delivered)
	}
}

// TestMultiTopicClusterIsolationAndAdaptation is the paper's motivating
// scenario end-to-end: two topics with overlapping subscribers, events
// stay within their topic, and a subscription wave that halves the
// overlapping nodes' budgets pulls the publisher's allowance down.
func TestMultiTopicClusterIsolationAndAdaptation(t *testing.T) {
	const n = 12
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("p%02d", i))
	}
	regA := membership.NewRegistry(names...) // all 12 in topic A
	regB := membership.NewRegistry(names[6:]...)

	delivered := map[gossip.NodeID]map[Topic]int{}
	peers := make([]*Peer, n)
	for i := range peers {
		name := names[i]
		delivered[name] = map[Topic]int{}
		cfg := peerConfig(string(name), 16)
		cfg.RNG = rand.New(rand.NewPCG(uint64(i), 7))
		cfg.Core.InitialRate = 12
		cfg.Core.MaxRate = 24
		cfg.Deliver = func(topic Topic, ev gossip.Event) { delivered[name][topic]++ }
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Subscribe("A", regA); err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	index := map[gossip.NodeID]int{}
	for i, name := range names {
		index[name] = i
	}

	now := t0
	carry := 0.0
	round := func(publishRate float64) {
		now = now.Add(time.Second)
		carry += publishRate
		for carry >= 1 {
			peers[0].Publish("A", []byte("a"), now)
			carry--
		}
		type env struct {
			to  gossip.NodeID
			msg *gossip.Message
		}
		var mail []env
		for _, p := range peers {
			for _, out := range p.Tick(now) {
				mail = append(mail, env{out.To, out.Msg})
			}
		}
		for _, e := range mail {
			peers[index[e.to]].Receive(e.msg, now)
		}
	}

	// Phase 1: only topic A, full budget everywhere.
	for r := 0; r < 60; r++ {
		round(12)
	}
	nodeA, _ := peers[0].TopicNode("A")
	allowedBefore := nodeA.AllowedRate()
	if allowedBefore <= 0 {
		t.Fatal("publisher has no allowance")
	}

	// Phase 2: the last 6 peers subscribe to topic B, halving their
	// budget on A. Topic B stays silent; only the budget split matters.
	for i := 6; i < n; i++ {
		if err := peers[i].Subscribe("B", regB); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 60; r++ {
		round(12)
	}
	allowedAfter := nodeA.AllowedRate()
	if allowedAfter >= allowedBefore*0.85 {
		t.Fatalf("allowance did not adapt to the budget split: %.2f → %.2f",
			allowedBefore, allowedAfter)
	}
	if got := nodeA.MinBuffEstimate(); got != 8 {
		t.Fatalf("minBuff estimate %d, want the split budget 8", got)
	}

	// Isolation: nobody delivered anything on topic B, and all of
	// peer 0's messages stayed on A.
	for name, byTopic := range delivered {
		if byTopic["B"] != 0 {
			t.Fatalf("%s delivered %d events on silent topic B", name, byTopic["B"])
		}
		if byTopic["A"] == 0 {
			t.Fatalf("%s delivered nothing on topic A", name)
		}
	}
}

// BenchmarkPubSubFanInOut measures the pub/sub peer's tick+receive
// path with three subscribed topics.
func BenchmarkPubSubFanInOut(b *testing.B) {
	reg := membership.NewRegistry("a", "b", "c", "d")
	cp := core.DefaultParams()
	peer, err := NewPeer(PeerConfig{
		ID:           "a",
		BufferBudget: 90,
		Gossip:       gossip.Params{Fanout: 3, Period: time.Second, MaxAge: 10},
		Adaptive:     true,
		Core:         cp,
		RNG:          rand.New(rand.NewPCG(11, 12)),
		Start:        time.Unix(0, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	topics := []Topic{"t1", "t2", "t3"}
	for _, topic := range topics {
		if err := peer.Subscribe(topic, reg); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		topic := topics[i%len(topics)]
		events := make([]gossip.Event, 20)
		for j := range events {
			events[j] = gossip.Event{
				ID:  gossip.EventID{Origin: "b", Seq: uint64(i*20 + j)},
				Age: j % 8,
			}
		}
		peer.Receive(&gossip.Message{From: "b", Group: string(topic), Events: events}, now)
		peer.Tick(now)
	}
}
