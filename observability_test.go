package adaptivegossip

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWireStatsIdenticalAcrossFacades: both facades fold their fabric's
// wire counters (sent/received messages and bytes, datagram splits and
// every discard: send errors, injected loss, read and decode errors,
// queue drops, datagrams with no handler) into the unified Stats
// snapshot, so once traffic has stopped Stats().Wire is exactly the
// fabric's own Stats. The admission counters obey the same identity on
// every facade: each offered publish is counted once, as Published or
// as Throttled, matching the verdict its caller got.
func TestWireStatsIdenticalAcrossFacades(t *testing.T) {
	const offered = 20 // the default bucket holds 2.5 tokens at 1 msg/s
	type running interface {
		Start(context.Context) error
		Stats() Stats
		Close() error
	}
	// check starts the facade, publishes past the bucket, waits for
	// wire traffic and checks both identities around Close.
	check := func(facade string, g running, fabric *UDPTransport, publish func() bool) {
		t.Helper()
		if err := g.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		admitted := 0
		for i := 0; i < offered; i++ {
			if publish() {
				admitted++
			}
		}
		if admitted == 0 || admitted == offered {
			t.Errorf("%s facade admitted %d of %d offers; the bucket was not crossed", facade, admitted, offered)
		}
		if st := g.Stats(); st.Published != uint64(admitted) || st.Throttled != uint64(offered-admitted) {
			t.Errorf("%s facade reports %d published + %d throttled for %d admitted of %d offered",
				facade, st.Published, st.Throttled, admitted, offered)
		}
		if !waitUntil(10*time.Second, func() bool { return fabric.Stats().Sent > 0 }) {
			t.Fatalf("%s facade sent nothing", facade)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := g.Stats().Wire, fabric.Stats(); got != want {
			t.Errorf("%s facade Wire = %+v, fabric Stats = %+v", facade, got, want)
		}
	}

	// The node's one peer is a bare endpoint on the same fabric, so
	// every round the node sends is counted there.
	fabric, err := NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.net.Endpoint("wire-b"); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("wire-a", fastConfig(), WithTransport(fabric),
		WithPeers(map[string]string{"wire-b": fabric.Addr("wire-b")}))
	if err != nil {
		t.Fatal(err)
	}
	check("node", node, fabric, func() bool { return node.Publish([]byte("x")) })

	fabric, err = NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(3, fastConfig(), WithTransport(fabric))
	if err != nil {
		t.Fatal(err)
	}
	check("cluster", cluster, fabric, func() bool { return cluster.Publish(1, []byte("x")) })
}

// TestDecodeErrorsReachStats closes the observability hole end to end:
// a datagram the wire codec rejects at a real UDP socket — here the
// compressed-length overflow frame that used to panic the dispatch
// goroutine — is counted in Stats.Wire.DecodeErrors, and the node keeps
// running.
func TestDecodeErrorsReachStats(t *testing.T) {
	node, err := NewNode("victim", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// "AGB" at the wire version (7), compress flag, gossip kind, from
	// "x", zeroed control fields, then rawLen 1, flate, wireLen MaxInt64.
	frame := append([]byte{'A', 'G', 'B', 7, 1 << 3, 0, 0, 1, 'x'}, make([]byte, 30)...)
	frame = append(frame, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	for _, datagram := range [][]byte{frame, []byte("not gossip")} {
		if _, err := conn.Write(datagram); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for node.Stats().Wire.DecodeErrors < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Wire.DecodeErrors = %d after two rejected datagrams", node.Stats().Wire.DecodeErrors)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !node.Publish([]byte("still alive")) {
		t.Fatal("node stopped admitting after the rejected datagrams")
	}
}

// TestStatsConcurrentWithTraffic is the -race regression for the
// stats-snapshot path: Stats() hammered from several goroutines while
// the group ticks, publishes and delivers. Run with -race (the CI race
// job does) to surface torn reads in the aggregation.
func TestStatsConcurrentWithTraffic(t *testing.T) {
	cfg := fastConfig()
	cfg.Observability.TraceSampleRate = 1 // exercise the tracer under race too
	cluster, err := NewCluster(4, cfg, WithSeed(7))
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
					_ = cluster.Stats()
				}
			}
		}()
	}
	deadline := time.After(300 * time.Millisecond)
	payload := []byte("race")
	for i := 0; ; i++ {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			st := cluster.Stats()
			if st.Nodes != 4 {
				t.Fatalf("final snapshot Nodes = %d, want 4", st.Nodes)
			}
			return
		default:
			cluster.Publish(i%4, payload)
			time.Sleep(time.Millisecond)
		}
	}
}

func debugGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestClusterDebugEndpoint drives a traced cluster and scrapes the
// debug listener: /debug/vars must report live protocol counters and
// allowance gauges, /metrics must render Prometheus histograms with
// buckets, and /debug/gossip/traces must reconstruct a publish →
// deliver rumor path with hop counts.
func TestClusterDebugEndpoint(t *testing.T) {
	cfg := fastConfig()
	cfg.Observability = ObservabilityConfig{
		DebugAddr:       "127.0.0.1:0",
		TraceSampleRate: 1,
	}
	cluster, err := NewCluster(3, cfg, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addr := cluster.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr is empty with a configured debug listener")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}

	events := cluster.Events(ctx)
	if !cluster.Publish(0, []byte("observe-me")) {
		t.Fatal("publish rejected")
	}
	// Wait until a non-origin node delivered the event, so the trace
	// has receive/deliver records and Stats has remote deliveries.
	deadline := time.After(5 * time.Second)
	for delivered := false; !delivered; {
		select {
		case d := <-events:
			delivered = d.Node != cluster.Nodes()[0]
		case <-deadline:
			t.Fatal("no remote delivery within 5s")
		}
	}

	vars := debugGet(t, "http://"+addr+"/debug/vars")
	var out map[string]any
	if err := json.Unmarshal([]byte(vars), &out); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if v, ok := out["gossip_delivered_total"].(float64); !ok || v < 2 {
		t.Fatalf("gossip_delivered_total = %v, want >= 2", out["gossip_delivered_total"])
	}
	if v, ok := out["gossip_allowed_rate_sum"].(float64); !ok || v <= 0 {
		t.Fatalf("gossip_allowed_rate_sum = %v, want > 0", out["gossip_allowed_rate_sum"])
	}
	if _, ok := out["gossip_stats"].(map[string]any); !ok {
		t.Fatalf("gossip_stats block missing: %v", out["gossip_stats"])
	}

	metrics := debugGet(t, "http://"+addr+"/metrics")
	for _, want := range []string{
		"# TYPE gossip_delivered_total counter",
		"# TYPE gossip_publish_throttled_total counter",
		"# TYPE gossip_allowed_rate_min gauge",
		"# TYPE gossip_deliver_hops histogram",
		`gossip_deliver_hops_bucket{le="+Inf"}`,
		"gossip_deliver_hops_count",
		"gossip_round_events_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	traces := debugGet(t, "http://"+addr+"/debug/gossip/traces")
	var recs []map[string]any
	if err := json.Unmarshal([]byte(traces), &recs); err != nil {
		t.Fatalf("/debug/gossip/traces is not JSON: %v", err)
	}
	stages := make(map[string]bool)
	for _, r := range recs {
		if r["event"] == fmt.Sprintf("%s/0", cluster.Nodes()[0]) {
			stages[r["stage"].(string)] = true
		}
	}
	for _, want := range []string{"publish", "first-send", "receive", "deliver"} {
		if !stages[want] {
			t.Fatalf("rumor lifecycle missing stage %q; saw %v in:\n%s", want, stages, traces)
		}
	}
}

// TestDebugScrapeReadsStatsOnce: one /metrics or /debug/vars scrape
// reads the group's Stats once, so every counter and gauge it renders
// comes from the same instant.
func TestDebugScrapeReadsStatsOnce(t *testing.T) {
	var calls atomic.Int64
	stats := func() Stats {
		calls.Add(1)
		return Stats{Nodes: 1, Delivered: 7}
	}
	g := newGroupObservability(ObservabilityConfig{})
	if err := g.bindServer("127.0.0.1:0", stats, nil); err != nil {
		t.Fatal(err)
	}
	defer g.close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		before := calls.Load()
		body := debugGet(t, "http://"+g.debugAddr()+path)
		if got := calls.Load() - before; got != 1 {
			t.Fatalf("%s scrape read Stats %d times, want 1", path, got)
		}
		if !strings.Contains(body, "gossip_delivered_total") || !strings.Contains(body, "gossip_nodes") {
			t.Fatalf("%s lacks the Stats families:\n%s", path, body)
		}
	}
}

// TestNodeDebugAddrOff asserts the zero ObservabilityConfig binds
// nothing.
func TestNodeDebugAddrOff(t *testing.T) {
	node, err := NewNode("dark", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if addr := node.DebugAddr(); addr != "" {
		t.Fatalf("debug listener bound without configuration: %q", addr)
	}
}

// TestObservabilityConfigValidate covers the sub-config's bounds.
func TestObservabilityConfigValidate(t *testing.T) {
	for _, rate := range []float64{1.5, math.NaN()} {
		bad := DefaultConfig()
		bad.Observability.TraceSampleRate = rate
		if err := bad.Validate(); err == nil {
			t.Fatalf("trace sample rate %v accepted", rate)
		}
	}
	good := DefaultConfig()
	good.Observability = ObservabilityConfig{TraceSampleRate: 0.25}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid observability config rejected: %v", err)
	}
}
