package adaptivegossip

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/transport"
)

// waitUntil polls cond every 10ms until it holds or the deadline
// passes, reporting whether it held.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

// peersSorted asserts the Stats.Peers shape contract shared by both
// facades: rows sorted by peer id, one row per observed peer.
func peersSorted(t *testing.T, facade string, peers []PeerLinkStats) {
	t.Helper()
	if !sort.SliceIsSorted(peers, func(i, j int) bool { return peers[i].Peer < peers[j].Peer }) {
		t.Fatalf("%s: Stats.Peers not sorted: %+v", facade, peers)
	}
}

// TestPeerStatsAcrossFacades: both facades fill Stats.Peers through
// the same peer-table seam — sorted rows, per-peer send/receive and
// fan-out counters — so per-link monitoring code is deployment
// agnostic.
func TestPeerStatsAcrossFacades(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cluster over the default loopback UDP fabric.
	cluster, err := NewCluster(3, fastConfig(), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.Publish(0, []byte("peer-telemetry"))
	if !waitUntil(5*time.Second, func() bool {
		st := cluster.Stats()
		if len(st.Peers) != 3 {
			return false
		}
		for _, p := range st.Peers {
			if p.MessagesSent == 0 || p.MessagesReceived == 0 ||
				p.BytesSent == 0 || p.BytesReceived == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("cluster peer telemetry never populated: %+v", cluster.Stats().Peers)
	}
	peersSorted(t, "cluster", cluster.Stats().Peers)

	// Node pair over real UDP: byte counters must move.
	cfg := fastConfig()
	a, err := NewNode("alpha", cfg, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got atomic.Int64
	b, err := NewNode("beta", cfg, WithSeed(2),
		WithDeliver(func(Delivery) { got.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("beta", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("alpha", a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if !a.Publish([]byte("over the wire")) {
		t.Fatal("publish rejected")
	}
	if !waitUntil(5*time.Second, func() bool { return got.Load() >= 1 }) {
		t.Fatal("event never crossed UDP")
	}
	nodeStats := a.Stats()
	peersSorted(t, "node", nodeStats.Peers)
	var row *PeerLinkStats
	for i := range nodeStats.Peers {
		if nodeStats.Peers[i].Peer == "beta" {
			row = &nodeStats.Peers[i]
		}
	}
	if row == nil {
		t.Fatalf("node has no row for beta: %+v", nodeStats.Peers)
	}
	if row.MessagesSent == 0 || row.BytesSent == 0 {
		t.Fatalf("UDP peer row never counted wire traffic: %+v", *row)
	}
	// Receiver side attributes inbound traffic to the decoded sender.
	if !waitUntil(5*time.Second, func() bool {
		for _, p := range b.Stats().Peers {
			if p.Peer == "alpha" && p.MessagesReceived > 0 && p.BytesReceived > 0 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("beta never attributed inbound traffic to alpha: %+v", b.Stats().Peers)
	}
}

// TestForgedSendersLeaveRowsForRealPeers: sender ids on the wire are not
// authenticated, and the per-peer table never evicts a row. Datagrams
// from 2,000 invented ids — more than the table holds — must not take
// the row of a member added afterwards.
func TestForgedSendersLeaveRowsForRealPeers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fastConfig()
	a, err := NewNode("alpha", cfg, WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const forged = 2000
	codec := transport.DefaultCodec()
	for i := 1; i <= forged; i++ {
		frame, err := codec.Encode(&gossip.Message{From: gossip.NodeID(fmt.Sprintf("forged-%04d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		// Paced, so the socket and the receive queue take every frame.
		if i%100 == 0 && !waitUntil(5*time.Second, func() bool { return a.Stats().Wire.Received >= uint64(i) }) {
			t.Fatalf("alpha read %d of %d forged frames", a.Stats().Wire.Received, i)
		}
	}

	b, err := NewNode("beta", cfg, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("beta", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("alpha", a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(5*time.Second, func() bool {
		for _, p := range a.Stats().Peers {
			if p.Peer == "beta" && p.MessagesSent > 0 && p.MessagesReceived > 0 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("alpha has no live row for beta after %d forged senders (%d rows)", forged, len(a.Stats().Peers))
	}
	if st := a.Stats(); len(st.Peers) != 1 || st.Wire.DecodeErrors != 0 || st.Wire.RecvQueueDrops != 0 {
		t.Fatalf("%d peer rows (want beta's alone), %d decode errors, %d queue drops", len(st.Peers), st.Wire.DecodeErrors, st.Wire.RecvQueueDrops)
	}
}

// TestPeerStatsConcurrentWithTraffic hammers the Stats.Peers snapshot
// path from several goroutines while the cluster gossips — the -race
// regression for the peer-table read path.
func TestPeerStatsConcurrentWithTraffic(t *testing.T) {
	cfg := fastConfig()
	cfg.Observability.HealthDigests = true
	cluster, err := NewCluster(4, cfg, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := cluster.Stats()
					peersSorted(t, "cluster", st.Peers)
					_ = cluster.ClusterHealth()
				}
			}
		}()
	}
	deadline := time.After(300 * time.Millisecond)
	for i := 0; ; i++ {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
			cluster.Publish(i%4, []byte("race"))
			time.Sleep(time.Millisecond)
		}
	}
}

// TestClusterHealthConverges: with health digests on, an in-process
// cluster's converged view grows to one entry per member, carrying
// live protocol counters.
func TestClusterHealthConverges(t *testing.T) {
	cfg := fastConfig()
	cfg.Observability.HealthDigests = true
	cluster, err := NewCluster(5, cfg, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cluster.Publish(0, []byte("digest-me"))
	if !waitUntil(5*time.Second, func() bool { return len(cluster.ClusterHealth()) == 5 }) {
		t.Fatalf("cluster health never converged: %d/5 members", len(cluster.ClusterHealth()))
	}
	view := cluster.ClusterHealth()
	if !sort.SliceIsSorted(view, func(i, j int) bool { return view[i].Node < view[j].Node }) {
		t.Fatalf("view not sorted: %+v", view)
	}
	var delivered uint64
	for _, m := range view {
		if m.BufferCap != cfg.BufferCapacity {
			t.Fatalf("member %s digest BufferCap = %d, want %d", m.Node, m.BufferCap, cfg.BufferCapacity)
		}
		delivered += m.Delivered
	}
	if delivered == 0 {
		t.Fatalf("no digest carries deliveries: %+v", view)
	}
	st := cluster.Stats()
	if st.HealthDigestsSent == 0 || st.HealthDigestsMerged == 0 {
		t.Fatalf("health counters flat: %+v", st)
	}

	// Health off keeps the view empty and the counters flat.
	dark, err := NewCluster(2, fastConfig(), WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	defer dark.Close()
	if err := dark.Start(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if v := dark.ClusterHealth(); len(v) != 0 {
		t.Fatalf("health digests disabled but view = %+v", v)
	}
}

// TestUDPClusterObservabilityAcceptance is the PR's acceptance check:
// two UDP nodes with tracing, health digests and the failure detector
// on. The causal publish → first-send → receive → deliver path must be
// reconstructable from both nodes' /debug/gossip/traces with the
// receiver attributing hop 1 to the sender, /debug/gossip/cluster on
// both nodes must converge to both members' digests within 10 gossip
// periods, and the receiver's /metrics must carry per-peer link
// families for the sender, including harvested ping RTTs.
func TestUDPClusterObservabilityAcceptance(t *testing.T) {
	const period = 100 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Period = period
	cfg.BufferCapacity = 40
	cfg.MaxAge = 8
	cfg.Failure.Enabled = true
	cfg.Observability = ObservabilityConfig{
		DebugAddr:       "127.0.0.1:0",
		TraceSampleRate: 1,
		HealthDigests:   true,
	}

	a, err := NewNode("a", cfg, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var got atomic.Int64
	b, err := NewNode("b", cfg, WithSeed(32),
		WithDeliver(func(Delivery) { got.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer("b", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer("a", a.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if !a.Publish([]byte("causal-path")) {
		t.Fatal("publish rejected")
	}
	if !waitUntil(5*time.Second, func() bool { return got.Load() >= 1 }) {
		t.Fatal("event never delivered on b")
	}

	// Cluster view: both nodes converge to both digests within 10
	// gossip periods of the delivery.
	clusterView := func(n *Node) []MemberHealth {
		var view []MemberHealth
		body := debugGet(t, "http://"+n.DebugAddr()+"/debug/gossip/cluster")
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatalf("cluster endpoint not JSON: %v\n%s", err, body)
		}
		return view
	}
	if !waitUntil(10*period, func() bool {
		return len(clusterView(a)) == 2 && len(clusterView(b)) == 2
	}) {
		t.Fatalf("cluster views never converged within 10 periods: a=%+v b=%+v",
			clusterView(a), clusterView(b))
	}
	for _, n := range []*Node{a, b} {
		view := clusterView(n)
		if view[0].Node != "a" || view[1].Node != "b" {
			t.Fatalf("%s view members = %s,%s", n.ID(), view[0].Node, view[1].Node)
		}
		for _, m := range view {
			if m.Round == 0 || m.WallMillis == 0 {
				t.Fatalf("%s view entry unstamped: %+v", n.ID(), m)
			}
		}
	}
	// The wire moved bytes, and once a's digest refreshes, b's view of a
	// says so.
	if !waitUntil(5*time.Second, func() bool {
		view := clusterView(b)
		return len(view) == 2 && view[0].BytesSent > 0 && view[0].MessagesSent > 0
	}) {
		t.Fatalf("a's digest never reported wire bytes: %+v", clusterView(b))
	}

	// Causal path: publish and first-send on a; receive and deliver on
	// b, attributed to a at hop 1.
	type traceRec struct {
		Event string `json:"event"`
		Stage string `json:"stage"`
		Node  string `json:"node"`
		From  string `json:"from"`
		Hop   int    `json:"hop"`
	}
	traceStages := func(n *Node) map[string]traceRec {
		var recs []traceRec
		body := debugGet(t, "http://"+n.DebugAddr()+"/debug/gossip/traces")
		if err := json.Unmarshal([]byte(body), &recs); err != nil {
			t.Fatalf("traces endpoint not JSON: %v\n%s", err, body)
		}
		out := make(map[string]traceRec)
		for _, r := range recs {
			if r.Event == "a/0" {
				out[r.Stage] = r
			}
		}
		return out
	}
	aStages := traceStages(a)
	for _, want := range []string{"publish", "first-send"} {
		if r, ok := aStages[want]; !ok || r.Node != "a" {
			t.Fatalf("a's trace missing %q: %v", want, aStages)
		}
	}
	var bStages map[string]traceRec
	if !waitUntil(5*time.Second, func() bool {
		bStages = traceStages(b)
		_, okR := bStages["receive"]
		_, okD := bStages["deliver"]
		return okR && okD
	}) {
		t.Fatalf("b's trace incomplete: %v", bStages)
	}
	recv := bStages["receive"]
	if recv.Node != "b" || recv.From != "a" || recv.Hop != 1 {
		t.Fatalf("receive record = %+v, want node b from a hop 1", recv)
	}
	if del := bStages["deliver"]; del.Hop != 1 {
		t.Fatalf("deliver record = %+v, want hop 1", del)
	}

	// Per-peer link families on the receiver's /metrics, including the
	// detector-harvested RTT histogram.
	if !waitUntil(5*time.Second, func() bool {
		metrics := debugGet(t, "http://"+b.DebugAddr()+"/metrics")
		return strings.Contains(metrics, `gossip_peer_messages_received_total{peer="a"}`) &&
			!strings.Contains(metrics, `gossip_peer_messages_received_total{peer="a"} 0`) &&
			strings.Contains(metrics, `gossip_peer_rtt_micros_count{peer="a"}`) &&
			!strings.Contains(metrics, `gossip_peer_rtt_micros_count{peer="a"} 0`)
	}) {
		metrics := debugGet(t, "http://"+b.DebugAddr()+"/metrics")
		t.Fatalf("b's /metrics lacks live per-peer families for a:\n%s", metrics)
	}
}

// TestPeersRefusedIsVisible: once the per-peer link table holds its
// bound of observe.DefaultPeerTableCapacity peers, every further peer
// id is refused a row and counted; the count is Stats.PeersRefused and
// the /metrics counter gossip_peers_refused_total, so a flood of forged
// ids shows where an operator looks.
func TestPeersRefusedIsVisible(t *testing.T) {
	cfg := fastConfig()
	cfg.Observability.DebugAddr = "127.0.0.1:0"
	n, err := NewNode("alpha", cfg, WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const refused = 100
	for i := range observe.DefaultPeerTableCapacity + refused {
		n.g.obs.peers.Get(fmt.Sprintf("forged-%05d", i))
	}
	st := n.Stats()
	if st.PeersRefused != refused || len(st.Peers) != observe.DefaultPeerTableCapacity {
		t.Fatalf("Stats: %d rows, %d refused; want %d rows, %d refused",
			len(st.Peers), st.PeersRefused, observe.DefaultPeerTableCapacity, refused)
	}
	metrics := debugGet(t, "http://"+n.DebugAddr()+"/metrics")
	if want := fmt.Sprintf("gossip_peers_refused_total %d\n", refused); !strings.Contains(metrics, want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}
