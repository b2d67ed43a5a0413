package runtime

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/transport"
)

// liveNode is a node owned by a runner loop: after Start every access
// goes through Do, the way the facades' members do it.
type liveNode struct {
	*Runner
	node *core.AdaptiveNode
}

func (l liveNode) publish(payload []byte) (admitted bool) {
	l.Do(func() { _, admitted = l.node.Publish(payload, time.Now()) })
	return admitted
}

func (l liveNode) setBufferCapacity(capacity int) (err error) {
	l.Do(func() { err = l.node.SetBufferCapacity(capacity) })
	return err
}

// read evaluates get on the node inside the loop.
func read[T any](l liveNode, get func(n *core.AdaptiveNode) T) (v T) {
	l.Do(func() { v = get(l.node) })
	return v
}

func (l liveNode) delivered() uint64 {
	return read(l, func(n *core.AdaptiveNode) uint64 { return n.GossipStats().Delivered })
}

func (l liveNode) minBuff() int {
	return read(l, (*core.AdaptiveNode).MinBuffEstimate)
}

func testCluster(t *testing.T, n int, adaptive bool, period time.Duration) []liveNode {
	t.Helper()
	net := transport.NewUDPNetwork(transport.UDPNetworkConfig{})
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%02d", i))
	}
	reg := membership.NewRegistry(names...)
	runners := make([]liveNode, n)
	for i := range runners {
		gp := gossip.Params{Fanout: 3, Period: period, MaxEvents: 30, MaxAge: 8}
		cp := core.DefaultParams()
		cp.InitialRate = 20
		node, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:       names[i],
			Gossip:   gp,
			Adaptive: adaptive,
			Core:     cp,
			Peers:    reg,
			RNG:      rand.New(rand.NewPCG(uint64(i), 42)),
			Start:    time.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := ep.Start(); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{Node: node, Transport: ep, Period: period})
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = liveNode{Runner: r, node: node}
	}
	t.Cleanup(func() {
		for _, r := range runners {
			r.Stop()
		}
		net.Close()
	})
	return runners
}

func TestNewRunnerValidation(t *testing.T) {
	ep, err := transport.NewUDPTransport("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	reg := membership.NewRegistry("a", "b")
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:     "a",
		Gossip: gossip.Params{Fanout: 1, Period: time.Second, MaxEvents: 4, MaxAge: 5},
		Peers:  reg,
		RNG:    rand.New(rand.NewPCG(1, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(Config{Node: nil, Transport: ep, Period: time.Second}); err == nil {
		t.Fatal("nil node accepted")
	}
	if _, err := NewRunner(Config{Node: node, Transport: nil, Period: time.Second}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := NewRunner(Config{Node: node, Transport: ep, Period: 0}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRunnerDisseminates(t *testing.T) {
	runners := testCluster(t, 8, false, 25*time.Millisecond)
	for _, r := range runners {
		r.Start()
	}
	if !runners[0].publish([]byte("hello")) {
		t.Fatal("publish rejected on baseline node")
	}
	// Wait for dissemination: every node should deliver the event.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, r := range runners {
			if r.delivered() < 1 {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, r := range runners {
		t.Logf("node %d: %+v", i, read(r, (*core.AdaptiveNode).GossipStats))
	}
	t.Fatal("event did not reach every node")
}

func TestRunnerStopIsIdempotentAndBeforeStart(t *testing.T) {
	runners := testCluster(t, 2, false, 50*time.Millisecond)
	r := runners[0]
	r.Stop() // before Start: no hang
	r.Stop()
	// Do on a never-started runner returns false.
	if ok := r.Do(func() {}); ok {
		t.Fatal("Do on stopped runner returned true")
	}
	r2 := runners[1]
	r2.Start()
	r2.Stop()
	r2.Stop()
	if ok := r2.publish(nil); ok {
		t.Fatal("publish after stop succeeded")
	}
}

func TestRunnerSnapshotAndCapacity(t *testing.T) {
	runners := testCluster(t, 2, true, 30*time.Millisecond)
	r := runners[0]
	r.Start()
	if got := read(r, (*core.AdaptiveNode).BufferCapacity); got != 30 {
		t.Fatalf("capacity = %d", got)
	}
	if err := r.setBufferCapacity(12); err != nil {
		t.Fatal(err)
	}
	if got := read(r, (*core.AdaptiveNode).BufferCapacity); got != 12 {
		t.Fatalf("capacity = %d after resize", got)
	}
	if got := r.minBuff(); got != 12 {
		t.Fatalf("minbuff estimate = %d after resize", got)
	}
	if err := r.setBufferCapacity(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestRunnerTicksHappen(t *testing.T) {
	runners := testCluster(t, 3, false, 20*time.Millisecond)
	for _, r := range runners {
		r.Start()
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range runners {
		if r.Stats().Ticks == 0 {
			t.Fatalf("runner %d never ticked", i)
		}
	}
}

func TestRunnerAdaptiveHeadersFlow(t *testing.T) {
	runners := testCluster(t, 6, true, 20*time.Millisecond)
	for _, r := range runners {
		r.Start()
	}
	// Shrink one node's buffer; the estimate must propagate to others.
	if err := runners[3].setBufferCapacity(7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		reached := 0
		for _, r := range runners {
			if r.minBuff() == 7 {
				reached++
			}
		}
		if reached == len(runners) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, r := range runners {
		t.Logf("node %d minbuff=%d", i, r.minBuff())
	}
	t.Fatal("minBuff estimate did not propagate to all runners")
}

func TestRunnerPublishThrottlesWhenAdaptive(t *testing.T) {
	runners := testCluster(t, 2, true, 30*time.Millisecond)
	r := runners[0]
	r.Start()
	admitted := 0
	for i := 0; i < 50; i++ {
		if r.publish(nil) {
			admitted++
		}
	}
	if admitted == 0 || admitted == 50 {
		t.Fatalf("admitted %d of 50, want partial admission (bucket-limited)", admitted)
	}
	if st := read(r, (*core.AdaptiveNode).Stats); st.Published != uint64(admitted) {
		t.Fatalf("stats %+v vs admitted %d", st, admitted)
	}
}

// externalAsyncTransport models a third-party Endpoint written against
// the pre-scratch contract: it retains every sent *Message for later
// inspection, as an asynchronous queue-and-drain transport would. It
// deliberately implements neither ManySender nor ScratchSafe.
type externalAsyncTransport struct {
	mu       sync.Mutex
	retained []*gossip.Message
	rounds   []uint64
	events   []int
}

func (f *externalAsyncTransport) LocalID() gossip.NodeID { return "ext" }

func (f *externalAsyncTransport) Send(to gossip.NodeID, msg *gossip.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.retained = append(f.retained, msg)
	f.rounds = append(f.rounds, msg.Round)
	f.events = append(f.events, len(msg.Events))
	return nil
}

func (f *externalAsyncTransport) SetHandler(transport.Handler) {}
func (f *externalAsyncTransport) Close() error                 { return nil }

// TestRunnerCopiesForExternalTransports pins the scratch-lifetime
// safety net: a transport that is not marked transport.ScratchSafe
// receives copies of the round message, so messages it retains across
// rounds are never rewritten by the node's next Tick.
func TestRunnerCopiesForExternalTransports(t *testing.T) {
	reg := membership.NewRegistry("ext", "peer")
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:     "ext",
		Gossip: gossip.Params{Fanout: 2, Period: 5 * time.Millisecond, MaxEvents: 30, MaxAge: 8},
		Peers:  reg,
		RNG:    rand.New(rand.NewPCG(7, 7)),
		Start:  time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &externalAsyncTransport{}
	r, err := NewRunner(Config{Node: node, Transport: tr, Period: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	if !(liveNode{Runner: r, node: node}).publish([]byte("retained payload")) {
		t.Fatal("publish rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		n := len(tr.retained)
		tr.mu.Unlock()
		if n >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d sends observed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Stop()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	distinct := make(map[*gossip.Message]bool)
	for i, msg := range tr.retained {
		distinct[msg] = true
		// Retention check: the message must still read exactly as it did
		// at send time — a runner handing out the scratch pointer would
		// have rewritten Round and Events on the next tick.
		if msg.Round != tr.rounds[i] {
			t.Fatalf("retained message %d mutated: Round %d, was %d at send time",
				i, msg.Round, tr.rounds[i])
		}
		if len(msg.Events) != tr.events[i] {
			t.Fatalf("retained message %d mutated: %d events, was %d at send time",
				i, len(msg.Events), tr.events[i])
		}
	}
	// Distinct rounds must arrive as distinct Message values.
	roundsSeen := make(map[uint64]bool)
	for _, rd := range tr.rounds {
		roundsSeen[rd] = true
	}
	if len(distinct) < len(roundsSeen) {
		t.Fatalf("%d distinct messages for %d distinct rounds — scratch pointer leaked", len(distinct), len(roundsSeen))
	}
}

// tickClock is a Machine that only records when it ticks.
type tickClock struct {
	mu    sync.Mutex
	ticks []time.Time
}

func (m *tickClock) ID() gossip.NodeID { return "clock" }

func (m *tickClock) Tick(now time.Time) []gossip.Outgoing {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ticks = append(m.ticks, now)
	return nil
}

func (m *tickClock) Receive(*gossip.Message, time.Time) []gossip.Outgoing { return nil }

func (m *tickClock) recorded() []time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]time.Time(nil), m.ticks...)
}

// TestRunnerFirstTickAtPhase pins the real-time half of the schedule
// sim.Network.Drive keeps: the first round at the member's phase, not a
// period after it, then one round per period.
func TestRunnerFirstTickAtPhase(t *testing.T) {
	const period = 200 * time.Millisecond
	m := &tickClock{}
	r, err := NewRunner(Config{Node: m, Transport: &externalAsyncTransport{}, Period: period, PhaseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	r.Start()
	defer r.Stop()
	const rounds = 4
	deadline := start.Add(r.phase + rounds*period + 5*time.Second)
	for len(m.recorded()) < rounds {
		if time.Now().After(deadline) {
			t.Fatalf("only %d ticks by the deadline", len(m.recorded()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.Stop()
	ticks := m.recorded()
	if first := ticks[0].Sub(start); first < r.phase || first >= r.phase+period/2 {
		t.Fatalf("first tick %v after Start, want at the phase %v (period %v)", first, r.phase, period)
	}
	for i := 1; i < len(ticks); i++ {
		if gap := ticks[i].Sub(ticks[i-1]); gap < period/2 || gap > 3*period/2 {
			t.Fatalf("ticks %d and %d are %v apart, want one period %v", i-1, i, gap, period)
		}
	}
}
