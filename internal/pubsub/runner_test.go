package pubsub

// These tests drive a Peer the way the PubSub facade does: as the
// Machine of the shared runtime.Runner, every call from outside the
// loop going through Do.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
)

// livePeer is a Peer owned by a runner loop.
type livePeer struct {
	p *Peer
	r *runtime.Runner
}

func newLivePeer(t *testing.T, p *Peer, ep transport.Transport, period time.Duration) livePeer {
	t.Helper()
	r, err := runtime.NewRunner(runtime.Config{Node: p, Transport: ep, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	return livePeer{p: p, r: r}
}

// do runs fn on the peer inside its loop; it fails when the loop is
// not running.
func (l livePeer) do(fn func(p *Peer) error) error {
	err := errors.New("runner stopped")
	l.r.Do(func() { err = fn(l.p) })
	return err
}

func (l livePeer) subscribe(topic Topic, peers gossip.PeerSampler) error {
	return l.do(func(p *Peer) error { return p.Subscribe(topic, peers) })
}

func (l livePeer) publish(topic Topic, payload []byte) (admitted bool, err error) {
	err = l.do(func(p *Peer) (err error) {
		_, admitted, err = p.Publish(topic, payload, time.Now())
		return err
	})
	return admitted, err
}

func (l livePeer) state() (out []TopicState) {
	l.r.Do(func() { out = l.p.State() })
	return out
}

func TestNewRunnerValidation(t *testing.T) {
	net, _ := transport.NewMemNetwork()
	defer net.Close()
	ep, _ := net.Endpoint("a")
	p := newPeer(t, "a", 30)
	if _, err := runtime.NewRunner(runtime.Config{Node: nil, Transport: ep, Period: time.Second}); err == nil {
		t.Fatal("nil peer accepted")
	}
	if _, err := runtime.NewRunner(runtime.Config{Node: p, Transport: nil, Period: time.Second}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := runtime.NewRunner(runtime.Config{Node: p, Transport: ep, Period: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
}

// TestRunnersDisseminatePerTopic runs a live two-topic cluster over the
// in-memory fabric and checks topic isolation end to end.
func TestRunnersDisseminatePerTopic(t *testing.T) {
	const n = 8
	net, err := transport.NewMemNetwork(transport.WithMemSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("p%02d", i))
	}
	regAll := membership.NewRegistry(names...)
	regHalf := membership.NewRegistry(names[:4]...)

	var mu sync.Mutex
	delivered := map[gossip.NodeID]map[Topic]int{}

	runners := make([]livePeer, n)
	for i := range runners {
		name := names[i]
		delivered[name] = map[Topic]int{}
		cfg := peerConfig(string(name), 40)
		cfg.Gossip.Period = 25 * time.Millisecond
		// peerConfig seeds by id length: identical streams for every
		// peer here, which makes fanout choices move in lockstep.
		cfg.RNG = rand.New(rand.NewPCG(uint64(i)+1, 99))
		cfg.Deliver = func(topic Topic, ev gossip.Event) {
			mu.Lock()
			delivered[name][topic]++
			mu.Unlock()
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = newLivePeer(t, p, ep, 25*time.Millisecond)
		runners[i].r.Start()
	}
	defer func() {
		for _, l := range runners {
			l.r.Stop()
		}
	}()

	// Everyone subscribes to "wide"; only the first half to "narrow".
	for i, r := range runners {
		if err := r.subscribe("wide", regAll); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			if err := r.subscribe("narrow", regHalf); err != nil {
				t.Fatal(err)
			}
		}
	}

	if ok, err := runners[0].publish("wide", []byte("w")); err != nil || !ok {
		t.Fatalf("publish wide: %v %v", ok, err)
	}
	if ok, err := runners[0].publish("narrow", []byte("n")); err != nil || !ok {
		t.Fatalf("publish narrow: %v %v", ok, err)
	}
	if _, err := runners[5].publish("narrow", nil); err == nil {
		t.Fatal("publish on unsubscribed topic accepted")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		wide, narrow := 0, 0
		for _, byTopic := range delivered {
			if byTopic["wide"] > 0 {
				wide++
			}
			if byTopic["narrow"] > 0 {
				narrow++
			}
		}
		mu.Unlock()
		if wide == n && narrow == 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, name := range names {
		if delivered[name]["wide"] != 1 {
			t.Fatalf("%s wide deliveries = %d", name, delivered[name]["wide"])
		}
		wantNarrow := 0
		if i < 4 {
			wantNarrow = 1
		}
		if delivered[name]["narrow"] != wantNarrow {
			t.Fatalf("%s narrow deliveries = %d, want %d", name, delivered[name]["narrow"], wantNarrow)
		}
	}
}

func TestRunnerSubscribeUnsubscribeLive(t *testing.T) {
	net, _ := transport.NewMemNetwork()
	defer net.Close()
	p := newPeer(t, "solo", 30)
	ep, _ := net.Endpoint("solo")
	r := newLivePeer(t, p, ep, 20*time.Millisecond)
	r.r.Start()
	defer r.r.Stop()

	reg := membership.NewRegistry("solo", "other")
	if err := r.subscribe("t1", reg); err != nil {
		t.Fatal(err)
	}
	if err := r.subscribe("t2", reg); err != nil {
		t.Fatal(err)
	}
	state := r.state()
	if len(state) != 2 || state[0].BufferCap != 15 {
		t.Fatalf("state %+v", state)
	}
	if err := r.do(func(p *Peer) error { return p.Unsubscribe("t1") }); err != nil {
		t.Fatal(err)
	}
	state = r.state()
	if len(state) != 1 || state[0].BufferCap != 30 {
		t.Fatalf("state after unsubscribe %+v", state)
	}
}

func TestRunnerStopSemantics(t *testing.T) {
	net, _ := transport.NewMemNetwork()
	defer net.Close()
	p := newPeer(t, "x", 30)
	ep, _ := net.Endpoint("x")
	r := newLivePeer(t, p, ep, 20*time.Millisecond)
	r.r.Stop() // before start: no hang
	if r.r.Do(func() {}) {
		t.Fatal("Do succeeded on never-started runner")
	}
	if _, err := r.publish("t", nil); err == nil {
		t.Fatal("publish on stopped runner accepted")
	}
}
