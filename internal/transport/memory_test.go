package transport

import (
	"sync"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func TestMemNetworkDelivers(t *testing.T) {
	net, err := NewMemNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	if a.LocalID() != "a" {
		t.Fatalf("LocalID = %s", a.LocalID())
	}
	got := make(chan *gossip.Message, 1)
	b.SetHandler(func(m *gossip.Message) { got <- m })
	msg := &gossip.Message{From: "a", Round: 7, Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "a", Seq: 1}, Age: 2, Payload: []byte("x")},
	}}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		// The fabric copies on send (senders reuse per-round scratch
		// messages), so delivery carries an equal message, not the same
		// pointer.
		if m == msg {
			t.Fatal("fabric delivered the sender's message without copying")
		}
		if m.From != msg.From || m.Round != msg.Round || len(m.Events) != 1 ||
			m.Events[0].ID != msg.Events[0].ID || m.Events[0].Age != msg.Events[0].Age ||
			string(m.Events[0].Payload) != "x" {
			t.Fatalf("wrong message delivered: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestMemNetworkDuplicateEndpoint(t *testing.T) {
	net, _ := NewMemNetwork()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("a"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if _, err := net.Endpoint(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestMemNetworkNoRoute(t *testing.T) {
	net, _ := NewMemNetwork()
	defer net.Close()
	a, _ := net.Endpoint("a")
	if err := a.Send("ghost", &gossip.Message{}); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
	if net.Stats().NoRoute != 1 {
		t.Fatalf("stats %+v", net.Stats())
	}
}

func TestMemNetworkLoss(t *testing.T) {
	net, err := NewMemNetwork(WithMemLoss(1.0), WithMemSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	delivered := make(chan struct{}, 16)
	b.SetHandler(func(*gossip.Message) { delivered <- struct{}{} })
	for i := 0; i < 10; i++ {
		if err := a.Send("b", &gossip.Message{}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-delivered:
		t.Fatal("message delivered at 100% loss")
	case <-time.After(100 * time.Millisecond):
	}
	if got := net.Stats().LossDropped; got != 10 {
		t.Fatalf("LossDropped = %d", got)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	net, err := NewMemNetwork(WithMemLatency(30*time.Millisecond, 30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	got := make(chan time.Time, 1)
	b.SetHandler(func(*gossip.Message) { got <- time.Now() })
	sent := time.Now()
	a.Send("b", &gossip.Message{})
	select {
	case at := <-got:
		if d := at.Sub(sent); d < 25*time.Millisecond {
			t.Fatalf("delivered after %v, want ≥ ~30ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery timed out")
	}
}

func TestMemNetworkInvalidOptions(t *testing.T) {
	if _, err := NewMemNetwork(WithMemLoss(-0.1)); err == nil {
		t.Fatal("negative loss accepted")
	}
	if _, err := NewMemNetwork(WithMemLatency(5, 1)); err == nil {
		t.Fatal("inverted latency accepted")
	}
}

func TestMemNetworkCloseStopsTraffic(t *testing.T) {
	net, _ := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(*gossip.Message) { mu.Lock(); count++; mu.Unlock() })
	net.Close()
	if err := a.Send("b", &gossip.Message{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestMemEndpointCloseDetaches(t *testing.T) {
	net, _ := NewMemNetwork()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", &gossip.Message{}); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
	// Re-registering the id works after detach.
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
}

func TestMemNetworkNoHandlerCounts(t *testing.T) {
	net, _ := NewMemNetwork()
	a, _ := net.Endpoint("a")
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	a.Send("b", &gossip.Message{})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if net.Stats().NoHandler == 1 {
			net.Close()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	net.Close()
	t.Fatalf("NoHandler = %d, want 1", net.Stats().NoHandler)
}

// TestMemSendManyCopiesScratch: the fabric delivers after a delay, by
// which time the sender has rewritten its per-round scratch message
// (the next Tick). Each receiver must still see the message as it was
// when SendMany was called.
func TestMemSendManyCopiesScratch(t *testing.T) {
	net, err := NewMemNetwork(WithMemLatency(20*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint("a")
	got := make(chan *gossip.Message, 2)
	for _, id := range []gossip.NodeID{"b", "c"} {
		ep, _ := net.Endpoint(id)
		ep.SetHandler(func(m *gossip.Message) { got <- m })
	}
	scratch := &gossip.Message{From: "a", Round: 1, Events: []gossip.Event{{ID: gossip.EventID{Origin: "a", Seq: 1}}}}
	if n, err := a.SendMany([]gossip.NodeID{"b", "c"}, scratch); n != 2 || err != nil {
		t.Fatalf("SendMany = %d, %v", n, err)
	}
	scratch.Round = 2
	scratch.Events[0].ID.Seq = 2
	for i := 0; i < 2; i++ {
		select {
		case m := <-got:
			if m.Round != 1 || m.Events[0].ID.Seq != 1 {
				t.Fatalf("receiver saw the sender's next round: round %d, seq %d", m.Round, m.Events[0].ID.Seq)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
}
