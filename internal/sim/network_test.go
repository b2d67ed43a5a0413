package sim

import (
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func testNet(t *testing.T, opts ...NetworkOption) (*Scheduler, *Network) {
	t.Helper()
	s := NewScheduler(Epoch)
	n, err := NewNetwork(s, DeriveRNG(1, 1), opts...)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return s, n
}

func TestNetworkDelivers(t *testing.T) {
	s, n := testNet(t)
	var got []*gossip.Message
	n.Attach("b", func(m *gossip.Message) { got = append(got, m) })
	msg := &gossip.Message{From: "a"}
	n.Send("a", "b", msg)
	s.Drain(10)
	if len(got) != 1 || got[0] != msg {
		t.Fatalf("delivered %v", got)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNetworkLatencyBounds(t *testing.T) {
	s, n := testNet(t, WithLatency(10*time.Millisecond, 50*time.Millisecond))
	var at []time.Time
	n.Attach("b", func(*gossip.Message) { at = append(at, s.Now()) })
	for i := 0; i < 200; i++ {
		n.Send("a", "b", &gossip.Message{})
	}
	s.RunUntil(Epoch.Add(time.Second))
	if len(at) != 200 {
		t.Fatalf("delivered %d/200", len(at))
	}
	for _, ts := range at {
		d := ts.Sub(Epoch)
		if d < 10*time.Millisecond || d > 50*time.Millisecond {
			t.Fatalf("latency %v out of bounds", d)
		}
	}
}

func TestNetworkLoss(t *testing.T) {
	s, n := testNet(t, WithLoss(0.5))
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		n.Send("a", "b", &gossip.Message{})
	}
	s.Drain(sent + 10)
	if delivered < 800 || delivered > 1200 {
		t.Fatalf("delivered %d of %d at 50%% loss", delivered, sent)
	}
	if got := n.Stats().LossDropped; got != uint64(sent-delivered) {
		t.Fatalf("LossDropped = %d, want %d", got, sent-delivered)
	}
}

func TestNetworkInvalidOptions(t *testing.T) {
	s := NewScheduler(Epoch)
	if _, err := NewNetwork(s, DeriveRNG(1, 1), WithLoss(1.5)); err == nil {
		t.Fatal("loss 1.5 accepted")
	}
	if _, err := NewNetwork(s, DeriveRNG(1, 1), WithLatency(time.Second, 0)); err == nil {
		t.Fatal("inverted latency bounds accepted")
	}
	if _, err := NewNetwork(nil, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestNetworkDownNode(t *testing.T) {
	s, n := testNet(t)
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.SetDown("b", true)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 0 {
		t.Fatal("message delivered to down node")
	}
	n.SetDown("b", false)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("message not delivered after recovery")
	}
	// Down sender also drops.
	n.SetDown("a", true)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("down sender still sent")
	}
	if got := n.Stats().DownDropped; got != 2 {
		t.Fatalf("DownDropped = %d, want 2", got)
	}
}

func TestNetworkCrashMidFlight(t *testing.T) {
	s, n := testNet(t, WithLatency(100*time.Millisecond, 100*time.Millisecond))
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.Send("a", "b", &gossip.Message{})
	// Node b crashes while the message is in flight.
	s.After(50*time.Millisecond, func() { n.SetDown("b", true) })
	s.RunUntil(Epoch.Add(time.Second))
	if delivered != 0 {
		t.Fatal("in-flight message delivered to crashed node")
	}
}

func TestNetworkLinkFilter(t *testing.T) {
	s, n := testNet(t)
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.SetLinkFilter(func(from, to gossip.NodeID) bool { return false })
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 0 {
		t.Fatal("filtered link delivered")
	}
	if n.Stats().Filtered != 1 {
		t.Fatalf("Filtered = %d", n.Stats().Filtered)
	}
	n.SetLinkFilter(nil)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("cleared filter still dropping")
	}
}

func TestNetworkUnroutedAndDetach(t *testing.T) {
	s, n := testNet(t)
	n.Send("a", "nowhere", &gossip.Message{})
	s.Drain(10)
	if n.Stats().Unrouted != 1 {
		t.Fatalf("Unrouted = %d", n.Stats().Unrouted)
	}
	n.Attach("b", func(*gossip.Message) {})
	n.Detach("b")
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if n.Stats().Unrouted != 2 {
		t.Fatalf("Unrouted after detach = %d", n.Stats().Unrouted)
	}
}

// TestAttachNodeCopiesReplies: what a node returns from Receive is its
// scratch, rewritten when it next receives, while the fabric holds a
// reply until its delivery instant — so AttachNode must copy. Two pings
// arrive back to back; both acks are produced from one reused message,
// and both must arrive as sent.
func TestAttachNodeCopiesReplies(t *testing.T) {
	s, n := testNet(t, WithLatency(10*time.Millisecond, 10*time.Millisecond))
	var box gossip.Outbox
	n.AttachNode("b", func(in *gossip.Message) []gossip.Outgoing {
		ack := box.Message()
		ack.Kind, ack.From, ack.ProbeSeq = gossip.KindPingAck, "b", in.ProbeSeq
		box.Queue(in.From, ack)
		return box.Take()
	})
	var got []uint64
	n.Attach("a", func(m *gossip.Message) { got = append(got, m.ProbeSeq) })
	n.Send("a", "b", &gossip.Message{Kind: gossip.KindPing, From: "a", ProbeSeq: 1})
	n.Send("a", "b", &gossip.Message{Kind: gossip.KindPing, From: "a", ProbeSeq: 2})
	s.Drain(10)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("acks arrived with sequence numbers %v, want [1 2]", got)
	}
}
