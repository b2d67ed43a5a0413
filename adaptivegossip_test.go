package adaptivegossip

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Period = 20 * time.Millisecond
	cfg.BufferCapacity = 40
	cfg.MaxAge = 8
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Fanout = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative fanout accepted")
	}
	bad = DefaultConfig()
	bad.Adaptation.Window = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad adaptation accepted")
	}
	// Adaptation errors are ignored for non-adaptive nodes.
	bad.Adaptive = false
	if err := bad.Validate(); err != nil {
		t.Fatalf("non-adaptive config rejected: %v", err)
	}
	bad = DefaultConfig()
	bad.Recovery.Enabled = true
	bad.Recovery.DigestLength = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad recovery sub-config accepted")
	}
	bad = DefaultConfig()
	bad.Failure.Enabled = true
	bad.Failure.IndirectProbes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad failure sub-config accepted")
	}
}

// TestConfigZeroValueNormalized covers the withDefaults migration away
// from the old `cfg == (Config{})` comparison: the zero Config and
// partially-filled configs normalize per field instead of being
// rejected (or silently replaced wholesale).
func TestConfigZeroValueNormalized(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	partial := Config{Period: 20 * time.Millisecond} // everything else zero
	if err := partial.Validate(); err != nil {
		t.Fatalf("partially-filled config invalid: %v", err)
	}
	norm := partial.withDefaults()
	if norm.Period != 20*time.Millisecond {
		t.Fatalf("explicit period overwritten: %v", norm.Period)
	}
	if norm.Fanout == 0 || norm.BufferCapacity == 0 || norm.MaxAge == 0 {
		t.Fatalf("zero fields not normalized: %+v", norm)
	}
	node, err := NewNode("zero", Config{})
	if err != nil {
		t.Fatalf("zero config rejected by NewNode: %v", err)
	}
	defer node.Close()
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cap := node.Snapshot().BufferCap; cap == 0 {
		t.Fatal("zero config produced zero-capacity buffer")
	}
}

func TestClusterDisseminates(t *testing.T) {
	var delivered atomic.Int64
	var mu sync.Mutex
	perNode := map[NodeID]int{}
	cluster, err := NewCluster(10, fastConfig(),
		WithSeed(42),
		WithDeliver(func(d Delivery) {
			delivered.Add(1)
			mu.Lock()
			perNode[d.Node]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if !cluster.Publish(3, []byte("hello")) {
		t.Fatal("publish rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if delivered.Load() >= 10 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := delivered.Load(); got != 10 {
		t.Fatalf("delivered to %d/10 nodes", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for node, count := range perNode {
		if count != 1 {
			t.Fatalf("node %s delivered %d times", node, count)
		}
	}
}

// disseminationScenario runs a cluster over a fabric handed in through
// WithTransport: every node publishes once, every event must reach
// every node exactly once.
func disseminationScenario(t *testing.T, fabric Transport) {
	t.Helper()
	const nodes = 6
	var mu sync.Mutex
	perEvent := map[EventID]int{}
	cluster, err := NewCluster(nodes, fastConfig(),
		WithSeed(17),
		WithTransport(fabric),
		WithDeliver(func(d Delivery) {
			mu.Lock()
			perEvent[d.Event.ID]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sent := 0
	for i := 0; i < nodes; i++ {
		if cluster.Publish(i, []byte(fmt.Sprintf("scenario-%d", i))) {
			sent++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sent == 0 {
		t.Fatal("no publishes admitted")
	}
	full := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, count := range perEvent {
			if count == nodes {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && full() < sent {
		time.Sleep(10 * time.Millisecond)
	}
	if got := full(); got != sent {
		t.Fatalf("%d/%d events reached all %d nodes", got, sent, nodes)
	}
	mu.Lock()
	defer mu.Unlock()
	for id, count := range perEvent {
		if count > nodes {
			t.Fatalf("event %v delivered %d times across %d nodes", id, count, nodes)
		}
	}
}

// TestClusterOverMemoryAndUDPTransports runs the dissemination
// scenario over the built-in UDP fabric, exercising the pluggable
// Transport seam end to end. The name dates from when an in-memory
// fabric was a second arm; UDP is now the only built-in one.
func TestClusterOverMemoryAndUDPTransports(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		fabric, err := NewUDPTransport(WithTransportSeed(17))
		if err != nil {
			t.Fatal(err)
		}
		disseminationScenario(t, fabric)
	})
}

// TestEventsStreamMatchesCallback asserts the acceptance criterion
// that the Events stream delivers exactly what the callback path
// delivers — same deliveries, per (node, event) multiplicity.
func TestEventsStreamMatchesCallback(t *testing.T) {
	type key struct {
		node NodeID
		id   EventID
	}
	var mu sync.Mutex
	viaCallback := map[key]int{}
	cluster, err := NewCluster(5, fastConfig(),
		WithSeed(23),
		WithDeliver(func(d Delivery) {
			mu.Lock()
			viaCallback[key{d.Node, d.Event.ID}]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	events := cluster.Events(ctx)
	viaStream := map[key]int{}
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		for d := range events {
			viaStream[key{d.Node, d.Event.ID}]++
		}
	}()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}

	const toSend = 8
	sent := 0
	for i := 0; i < toSend; i++ {
		if cluster.Publish(i%5, []byte{byte(i)}) {
			sent++
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := sent * 5
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, c := range viaCallback {
			n += c
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && count() < want {
		time.Sleep(10 * time.Millisecond)
	}
	if got := count(); got != want {
		t.Fatalf("callback saw %d/%d deliveries", got, want)
	}
	// Close ends the stream; the consumer drains whatever the callback
	// saw.
	cluster.Close()
	<-streamed

	if st := cluster.Stats(); st.StreamDropped != 0 {
		t.Fatalf("stream dropped %d deliveries with a live consumer", st.StreamDropped)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(viaStream) != len(viaCallback) {
		t.Fatalf("stream saw %d distinct deliveries, callback %d", len(viaStream), len(viaCallback))
	}
	for k, c := range viaCallback {
		if viaStream[k] != c {
			t.Fatalf("delivery %v: callback %d, stream %d", k, c, viaStream[k])
		}
	}
}

// TestDeliverCallbackSerialized pins the documented DeliverFunc
// contract: callbacks for one member run on that member's gossip
// goroutine and are never concurrent with each other.
func TestDeliverCallbackSerialized(t *testing.T) {
	const nodes = 6
	inFlight := make(map[NodeID]*atomic.Int32, nodes)
	for i := 0; i < nodes; i++ {
		inFlight[NodeID(fmt.Sprintf("node-%02d", i))] = new(atomic.Int32)
	}
	var overlaps, total atomic.Int64
	cluster, err := NewCluster(nodes, fastConfig(),
		WithSeed(31),
		WithDeliver(func(d Delivery) {
			ctr := inFlight[d.Node]
			if ctr.Add(1) != 1 {
				overlaps.Add(1)
			}
			time.Sleep(100 * time.Microsecond) // widen any race window
			ctr.Add(-1)
			total.Add(1)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for i := 0; i < 12; i++ {
		cluster.Publish(i%nodes, []byte{byte(i)})
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && total.Load() < 40 {
		time.Sleep(10 * time.Millisecond)
	}
	if total.Load() == 0 {
		t.Fatal("no deliveries observed")
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d concurrent callback invocations for a single member", n)
	}
}

func TestClusterRecoversUnderLoss(t *testing.T) {
	cfg := fastConfig()
	cfg.Fanout = 1
	cfg.MaxAge = 3
	cfg.Recovery.Enabled = true

	// Loss injection now lives on the transport, not the cluster.
	fabric, err := NewUDPTransport(WithTransportSeed(11), WithLoss(0.3))
	if err != nil {
		t.Fatal(err)
	}
	const nodes, events = 8, 10
	var delivered atomic.Int64
	cluster, err := NewCluster(nodes, cfg,
		WithSeed(11),
		WithTransport(fabric),
		WithDeliver(func(d Delivery) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sent := 0
	for i := 0; i < events; i++ {
		if cluster.Publish(i%2, []byte{byte(i)}) {
			sent++
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := int64(sent * nodes)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if delivered.Load() >= want {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d under loss with recovery enabled", got, want)
	}
	st := cluster.Stats()
	if st.EventsRecovered == 0 {
		t.Error("full delivery but no events recovered — loss regime too soft to exercise recovery")
	}
	t.Logf("recovered %d events across %d nodes", st.EventsRecovered, nodes)
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(1, fastConfig()); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	bad := fastConfig()
	bad.Period = -1
	if _, err := NewCluster(4, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewCluster(4, fastConfig(), WithTransport(nil)); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := NewCluster(4, fastConfig(), WithPeers(map[string]string{"x": "y"})); err == nil {
		t.Fatal("WithPeers accepted by NewCluster")
	}
	if _, err := NewCluster(4, fastConfig(), WithNamePrefix("")); err == nil {
		t.Fatal("empty name prefix accepted")
	}

	// A transport handed over via WithTransport is owned by the group
	// even when construction fails: the fabric must be closed, not
	// leaked back to the caller.
	tr, err := NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(1, fastConfig(), WithTransport(tr)); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := tr.Endpoint("probe"); err == nil {
		t.Fatal("fabric still open after failed construction")
	}
	tr, err = NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	// Option errors are no exception, regardless of option order.
	if _, err := NewCluster(4, fastConfig(), WithNamePrefix(""), WithTransport(tr)); err == nil {
		t.Fatal("empty name prefix accepted")
	}
	if _, err := tr.Endpoint("probe"); err == nil {
		t.Fatal("fabric still open after failed option application")
	}
}

func TestTransportOptionValidation(t *testing.T) {
	if _, err := NewUDPTransport(WithLoss(2)); err == nil {
		t.Fatal("invalid loss accepted")
	}
	if _, err := NewUDPTransport(WithBind("")); err == nil {
		t.Fatal("empty bind address accepted")
	}
	if _, err := NewUDPTransport(WithRecvQueue(0)); err == nil {
		t.Fatal("empty receive queue accepted")
	}
	if _, err := NewUDPTransport(WithMaxDatagram(16)); err == nil {
		t.Fatal("tiny max datagram accepted")
	}

	// WithBind pins a single listen address: a second endpoint must be
	// rejected, not silently double-bound.
	tr, err := NewUDPTransport(WithBind("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Endpoint("b"); err == nil {
		t.Fatal("second endpoint accepted on a WithBind fabric")
	}
	if _, err := tr.Endpoint("a"); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if got := tr.Addr("a"); got == "" {
		t.Fatal("no address for bound endpoint")
	}
	if got := tr.Addr("ghost"); got != "" {
		t.Fatalf("address %q for unknown endpoint", got)
	}
}

func TestClusterSnapshotAndResize(t *testing.T) {
	cluster, err := NewCluster(4, fastConfig(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	snap, err := cluster.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.BufferCap != 40 {
		t.Fatalf("snapshot %+v", snap)
	}
	if err := cluster.SetBufferCapacity(0, 12); err != nil {
		t.Fatal(err)
	}
	snap, _ = cluster.Snapshot(0)
	if snap.BufferCap != 12 {
		t.Fatalf("resize not applied: %+v", snap)
	}
	if _, err := cluster.Snapshot(99); err == nil {
		t.Fatal("out-of-range snapshot accepted")
	}
	if err := cluster.SetBufferCapacity(-1, 5); err == nil {
		t.Fatal("out-of-range resize accepted")
	}
	if cluster.Publish(99, nil) {
		t.Fatal("out-of-range publish succeeded")
	}
	if got := cluster.Len(); got != 4 {
		t.Fatalf("Len = %d", got)
	}
	if got := cluster.Nodes(); len(got) != 4 || got[0] != "node-00" {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestClusterStatsAggregate(t *testing.T) {
	cluster, err := NewCluster(6, fastConfig(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < 3; i++ {
		cluster.Publish(i, []byte{byte(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := cluster.Stats()
		if st.Delivered >= 18 && st.Published >= 3 {
			if st.Nodes != 6 {
				t.Fatalf("Stats.Nodes = %d, want 6", st.Nodes)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("stats never converged: %+v", cluster.Stats())
}

func TestClusterCloseIdempotent(t *testing.T) {
	cluster, err := NewCluster(3, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(ctx); err != nil { // idempotent while open
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := cluster.Start(ctx); err == nil {
		t.Fatal("start after close accepted")
	}
}

// TestStartContextCancelClosesGroup: Start is context-aware — cancelling
// the context tears the group down and ends the Events streams.
func TestStartContextCancelClosesGroup(t *testing.T) {
	cluster, err := NewCluster(3, fastConfig(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := cluster.Events(context.Background())
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // stream closed: the group shut down
			}
		case <-deadline.C:
			t.Fatal("events stream never closed after context cancel")
		}
	}
}

func TestUDPNodePairDisseminates(t *testing.T) {
	cfg := fastConfig()
	a, err := NewNode("alpha", cfg, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got atomic.Int64
	b, err := NewNode("beta", cfg, WithSeed(2),
		WithDeliver(func(d Delivery) {
			if d.Node != "beta" {
				t.Errorf("delivery attributed to %s", d.Node)
			}
			got.Add(1)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Wire the address book both ways.
	if err := a.AddPeer("beta", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("alpha", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if !a.Publish([]byte("over the wire")) {
		t.Fatal("publish rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got.Load() >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Load() < 1 {
		t.Fatalf("event never crossed UDP; a=%+v b=%+v", a.Stats(), b.Stats())
	}
	if a.ID() != "alpha" {
		t.Fatalf("ID = %s", a.ID())
	}
	if a.Addr() == "" {
		t.Fatal("UDP node reports no address")
	}
	if a.Snapshot().BufferCap != cfg.BufferCapacity {
		t.Fatal("snapshot wrong")
	}
	if st := a.Stats(); st.Nodes != 1 || st.Published == 0 {
		t.Fatalf("node stats %+v", st)
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode("", Config{}); err == nil {
		t.Fatal("missing id accepted")
	}
	badBind, err := NewUDPTransport(WithBind("nope:xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode("x", Config{}, WithTransport(badBind)); err == nil {
		t.Fatal("bad bind accepted")
	}
	bad := DefaultConfig()
	bad.MaxAge = -1
	if _, err := NewNode("x", bad); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewNode("x", Config{},
		WithPeers(map[string]string{"y": "not-valid:addr:xx"})); err == nil {
		t.Fatal("bad peer addr accepted")
	}
	if _, err := NewNode("x", Config{}, WithNamePrefix("n-")); err == nil {
		t.Fatal("WithNamePrefix accepted by NewNode")
	}
	// WithPeers needs an address book; a custom fabric may have none.
	if _, err := NewNode("x", Config{}, WithTransport(&stubWireTransport{}),
		WithPeers(map[string]string{"y": "127.0.0.1:1"})); err == nil {
		t.Fatal("WithPeers accepted on a transport without an address book")
	}
}

// TestNodeAddPeerValidatesAddresses: AddPeer must fail loudly instead
// of admitting a member with no wire route.
func TestNodeAddPeerValidatesAddresses(t *testing.T) {
	udp, err := NewNode("udp-node", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	if err := udp.AddPeer("peer", ""); err == nil {
		t.Fatal("empty address accepted by a UDP node")
	}
	if err := udp.AddPeer("peer", "not:valid:addr:xx"); err == nil {
		t.Fatal("malformed address accepted by a UDP node")
	}
	if len(udp.Members()) != 1 {
		t.Fatalf("failed AddPeer still grew the member set: %v", udp.Members())
	}

	// A custom fabric that routes by id has no address book, so a
	// non-empty address is an error and "" is the way to add members.
	node, err := NewNode("id-routed", Config{}, WithTransport(&stubWireTransport{}))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.AddPeer("peer", "127.0.0.1:9"); err == nil {
		t.Fatal("address accepted by a transport without an address book")
	}
	if err := node.AddPeer("peer", ""); err != nil {
		t.Fatalf("id-routed AddPeer failed: %v", err)
	}
	if len(node.Members()) != 2 {
		t.Fatalf("members %v", node.Members())
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.N = 16
	cfg.Fanout = 3
	cfg.Period = time.Second
	cfg.Buffer = 25
	cfg.OfferedRate = 5
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 80 * time.Second
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanReceiversPct < 95 {
		t.Fatalf("simulation unhealthy: %+v", res.Summary)
	}
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Fatal("invalid sim config accepted")
	}
}

func TestSimulateRealtimeFacade(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.N = 8
	cfg.Fanout = 3
	cfg.Period = 25 * time.Millisecond
	cfg.Buffer = 25
	cfg.MaxAge = 8
	cfg.OfferedRate = 40
	cfg.Warmup = 200 * time.Millisecond
	cfg.Duration = 600 * time.Millisecond
	res, err := SimulateRealtime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Messages == 0 {
		t.Fatal("no messages measured")
	}
}

// TestClusterFailureDetectionHealthy exercises the public detector
// knob end to end: in a healthy loopback cluster the detector probes
// continuously but must never bury a live member, and dissemination
// keeps working with the probe traffic in the mix.
func TestClusterFailureDetectionHealthy(t *testing.T) {
	var delivered atomic.Int64
	cfg := fastConfig()
	cfg.Failure.Enabled = true
	// Generous suspicion window: with 20ms rounds a node only has to
	// stall ~8 rounds to be falsely confirmed, which slowed-down CI
	// runs (-race, shared runners) can hit. 40 rounds of grace keeps
	// the "no false confirms in a healthy cluster" property meaningful
	// without making it a scheduler-latency test.
	cfg.Failure.SuspicionTimeout = 40
	cluster, err := NewCluster(8, cfg,
		WithSeed(7),
		WithDeliver(func(d Delivery) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Let a good number of probe rounds elapse.
	time.Sleep(30 * cfg.Period)
	if !cluster.Publish(2, []byte("still here")) {
		t.Fatal("publish rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && delivered.Load() < 8 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := delivered.Load(); got != 8 {
		t.Fatalf("delivered to %d/8 nodes with detector on", got)
	}
	st := cluster.Stats()
	if st.ProbesSent == 0 {
		t.Fatal("detector enabled but no probes sent")
	}
	if st.Confirms != 0 {
		t.Fatalf("%d live members confirmed dead in a healthy cluster", st.Confirms)
	}
}

// TestDefaultSuspicionTimeoutSparesLiveMembers: with the detector's
// suspicion timeout left at zero, a 16-member loopback-UDP group at a
// 20 ms period with every extension on and 20% injected loss confirms
// no live member. Five rounds — the detector's own default — are 100 ms
// at that period, and such a group buries live members dozens of times
// in three seconds; the facade derives the timeout from wall time
// instead.
func TestDefaultSuspicionTimeoutSparesLiveMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-member UDP group for three seconds")
	}
	cfg := DefaultConfig()
	cfg.Period = 20 * time.Millisecond
	cfg.BufferCapacity = 120
	cfg.MaxAge = 10
	cfg.Recovery.Enabled = true
	cfg.Failure.Enabled = true
	cfg.Observability.HealthDigests = true
	cfg.Transport.Compression = "flate"
	fabric, err := NewUDPTransport(WithTransportSeed(29), WithLoss(0.2))
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(16, cfg, WithTransport(fabric), WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200)
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		cluster.Publish(int(time.Now().UnixNano()%16), payload)
	}
	st := cluster.Stats()
	if st.ProbesSent == 0 {
		t.Fatal("detector enabled but no probes sent")
	}
	if st.Confirms != 0 {
		t.Fatalf("%d confirmations of live members under the default suspicion timeout", st.Confirms)
	}
}

// TestUDPNodeMembersEviction: the node facade evicts a stopped peer
// from the survivor's member list after detection and reports the
// transitions through WithOnMemberChange.
func TestUDPNodeMembersEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.Failure.Enabled = true
	// Enough suspicion grace that a scheduler stall on a loaded CI
	// runner cannot falsely bury a live peer, while still confirming
	// the genuinely-dead one quickly at 20ms rounds.
	cfg.Failure.SuspicionTimeout = 8

	var transitions sync.Map
	mk := func(id string, opts ...Option) *Node {
		n, err := NewNode(id, cfg, append(opts, WithSeed(int64(len(id))+9))...)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk("alpha", WithOnMemberChange(func(node, peer NodeID, st MemberStatus) {
		if node != "alpha" {
			t.Errorf("transition attributed to %s", node)
		}
		transitions.Store(string(peer)+":"+st.String(), true)
	}))
	b := mk("beta")
	c := mk("gamma")
	defer a.Close()
	defer c.Close()
	for _, pair := range [][2]*Node{{a, b}, {b, a}, {a, c}, {c, a}, {b, c}, {c, b}} {
		if err := pair[0].AddPeer(string(pair[1].ID()), pair[1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, n := range []*Node{a, b, c} {
		if err := n.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.Members()) != 3 {
		t.Fatalf("alpha tracks %d members, want 3", len(a.Members()))
	}

	// Kill beta; alpha should confirm and evict it while keeping gamma
	// (a transient false eviction of gamma self-heals via revival, so
	// wait for the converged state rather than a member count).
	b.Close()
	settled := func() bool {
		hasBeta, hasGamma := false, false
		for _, id := range a.Members() {
			switch id {
			case "beta":
				hasBeta = true
			case "gamma":
				hasGamma = true
			}
		}
		return !hasBeta && hasGamma
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !settled() {
		time.Sleep(20 * time.Millisecond)
	}
	if !settled() {
		t.Fatalf("alpha tracks %v after beta stopped; want gamma kept, beta evicted", a.Members())
	}
	if _, ok := transitions.Load("beta:confirmed"); !ok {
		t.Fatal("OnMemberChange never reported beta confirmed")
	}
}
