package observe

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func startTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, url string) string {
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

func TestServerVarsJSON(t *testing.T) {
	s := startTestServer(t)
	s.PublishReading("gossip_stats", func() Reading {
		return Reading{
			Var:      map[string]int{"nodes": 3},
			Counters: map[string]uint64{"gossip_delivered_total": 17},
			Gauges:   map[string]float64{"gossip_allowed_rate": 2.5},
		}
	})
	var h Histogram
	for i := 0; i < 32; i++ {
		h.Observe(uint64(i))
	}
	s.PublishHistogram("gossip_delivery_hops", h.Snapshot)

	body := get(t, "http://"+s.Addr()+"/debug/vars")
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("vars output is not JSON: %v\n%s", err, body)
	}
	if out["gossip_delivered_total"] != float64(17) {
		t.Fatalf("counter missing or wrong: %v", out["gossip_delivered_total"])
	}
	if out["gossip_allowed_rate"] != 2.5 {
		t.Fatalf("gauge missing or wrong: %v", out["gossip_allowed_rate"])
	}
	hist, ok := out["gossip_delivery_hops"].(map[string]any)
	if !ok || hist["count"] != float64(32) {
		t.Fatalf("histogram summary missing: %v", out["gossip_delivery_hops"])
	}
	if _, ok := hist["p99"]; !ok {
		t.Fatalf("histogram summary lacks p99: %v", hist)
	}
	if _, ok := out["memstats"]; !ok {
		t.Fatal("memstats block missing from /debug/vars")
	}
	if stats, ok := out["gossip_stats"].(map[string]any); !ok || stats["nodes"] != float64(3) {
		t.Fatalf("reading's var missing or wrong: %v", out["gossip_stats"])
	}
}

func TestServerPrometheusText(t *testing.T) {
	s := startTestServer(t)
	s.PublishReading("gossip_stats", func() Reading {
		return Reading{
			Counters: map[string]uint64{"gossip_messages_sent_total": 5},
			Gauges:   map[string]float64{"gossip_allowed_rate_min": 1.25},
		}
	})
	var h Histogram
	h.Observe(3)
	h.Observe(300)
	s.PublishHistogram("gossip_drop_age", h.Snapshot)

	body := get(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{
		"# TYPE gossip_messages_sent_total counter",
		"gossip_messages_sent_total 5",
		"# TYPE gossip_allowed_rate_min gauge",
		"gossip_allowed_rate_min 1.25",
		"# TYPE gossip_drop_age histogram",
		`gossip_drop_age_bucket{le="+Inf"} 2`,
		"gossip_drop_age_sum 303",
		"gossip_drop_age_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, body)
		}
	}
	// Cumulative bucket counts: the +Inf bucket equals the count and
	// every listed bucket is non-decreasing.
	if !strings.Contains(body, "gossip_drop_age_bucket{le=") {
		t.Fatalf("no explicit buckets rendered:\n%s", body)
	}
}

func TestServerTracesEndpoint(t *testing.T) {
	s := startTestServer(t)
	body := get(t, "http://"+s.Addr()+"/debug/gossip/traces")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("traces endpoint without recorder should return [], got %q", body)
	}

	r := NewRecorder(1, 16)
	r.Trace(TraceEvent{Origin: "a", Seq: 1, Stage: StagePublish, Node: "a"})
	r.Trace(TraceEvent{Origin: "a", Seq: 1, Stage: StageDeliver, Node: "b", Hop: 2})
	s.PublishTraces(r.Records)

	body = get(t, "http://"+s.Addr()+"/debug/gossip/traces")
	var recs []map[string]any
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("traces output is not JSON: %v\n%s", err, body)
	}
	if len(recs) != 2 {
		t.Fatalf("traces endpoint returned %d records, want 2", len(recs))
	}
	if recs[0]["stage"] != "publish" || recs[1]["stage"] != "deliver" {
		t.Fatalf("trace stages wrong: %v", recs)
	}
	if recs[1]["hop"] != float64(2) || recs[1]["event"] != "a/1" {
		t.Fatalf("trace detail wrong: %v", recs[1])
	}
}

// getWithType fetches url and returns (body, Content-Type).
func getWithType(t *testing.T, url string) (string, string) {
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
	return string(body), resp.Header.Get("Content-Type")
}

// TestServerContentTypes: every observability endpoint declares its
// media type — Prometheus text exposition v0.0.4 on /metrics, JSON
// everywhere else.
func TestServerContentTypes(t *testing.T) {
	s := startTestServer(t)
	s.PublishReading("gossip_stats", func() Reading {
		return Reading{Counters: map[string]uint64{"gossip_delivered_total": 1}}
	})
	for url, want := range map[string]string{
		"/metrics":              "text/plain; version=0.0.4; charset=utf-8",
		"/debug/vars":           "application/json; charset=utf-8",
		"/debug/gossip/traces":  "application/json; charset=utf-8",
		"/debug/gossip/cluster": "application/json; charset=utf-8",
	} {
		if _, ct := getWithType(t, "http://"+s.Addr()+url); ct != want {
			t.Fatalf("%s Content-Type = %q, want %q", url, ct, want)
		}
	}
}

// TestServerMetricsStableOrder: /metrics iterates sorted names and
// sorted peer ids, so two scrapes of an idle process are byte-identical
// and families appear in lexicographic order regardless of
// registration order.
func TestServerMetricsStableOrder(t *testing.T) {
	s := startTestServer(t)
	// Register intentionally out of order, across two sources.
	s.PublishReading("z", func() Reading {
		return Reading{Counters: map[string]uint64{"gossip_z_total": 3, "gossip_a_total": 1}}
	})
	s.PublishReading("m", func() Reading {
		return Reading{Counters: map[string]uint64{"gossip_m_total": 2}}
	})
	pt := NewPeerTable(8)
	pt.Get("zeta").MessagesSent.Inc()
	pt.Get("alpha").MessagesSent.Inc()
	s.PublishPeers(pt.Snapshot)

	first := get(t, "http://"+s.Addr()+"/metrics")
	second := get(t, "http://"+s.Addr()+"/metrics")
	if first != second {
		t.Fatalf("idle scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, pair := range [][2]string{
		{"gossip_a_total", "gossip_m_total"},
		{"gossip_m_total", "gossip_z_total"},
		{`gossip_peer_messages_sent_total{peer="alpha"}`, `gossip_peer_messages_sent_total{peer="zeta"}`},
	} {
		i, j := strings.Index(first, pair[0]), strings.Index(first, pair[1])
		if i < 0 || j < 0 || i > j {
			t.Fatalf("%q must precede %q in /metrics:\n%s", pair[0], pair[1], first)
		}
	}
}

// TestServerPeerMetrics: the per-peer families render with peer labels
// on /metrics and as the gossip_peers array on /debug/vars.
func TestServerPeerMetrics(t *testing.T) {
	s := startTestServer(t)
	pt := NewPeerTable(8)
	ps := pt.Get("b")
	ps.MessagesSent.Add(4)
	ps.BytesSent.Add(512)
	ps.RTTMicros.ObserveInt(1500)
	s.PublishPeers(pt.Snapshot)

	metrics := get(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{
		"# TYPE gossip_peer_messages_sent_total counter",
		`gossip_peer_messages_sent_total{peer="b"} 4`,
		`gossip_peer_bytes_sent_total{peer="b"} 512`,
		"# TYPE gossip_peer_rtt_micros histogram",
		`gossip_peer_rtt_micros_count{peer="b"} 1`,
		`gossip_peer_rtt_micros_sum{peer="b"} 1500`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	body := get(t, "http://"+s.Addr()+"/debug/vars")
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	rows, ok := out["gossip_peers"].([]any)
	if !ok || len(rows) != 1 {
		t.Fatalf("gossip_peers = %v", out["gossip_peers"])
	}
	row := rows[0].(map[string]any)
	if row["peer"] != "b" || row["messages_sent"] != float64(4) {
		t.Fatalf("peer row = %v", row)
	}
	if rtt, ok := row["rtt_micros"].(map[string]any); !ok || rtt["count"] != float64(1) {
		t.Fatalf("peer rtt summary = %v", row["rtt_micros"])
	}
}

// TestServerClusterEndpoint: /debug/gossip/cluster serves [] without a
// source and the registered view's JSON with one.
func TestServerClusterEndpoint(t *testing.T) {
	s := startTestServer(t)
	body := get(t, "http://"+s.Addr()+"/debug/gossip/cluster")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("cluster endpoint without source should return [], got %q", body)
	}

	type member struct {
		Node  string `json:"node"`
		Round uint64 `json:"round"`
	}
	s.PublishCluster(func() any { return []member{{Node: "a", Round: 7}, {Node: "b", Round: 3}} })
	body = get(t, "http://"+s.Addr()+"/debug/gossip/cluster")
	var view []member
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("cluster output is not JSON: %v\n%s", err, body)
	}
	if len(view) != 2 || view[0].Node != "a" || view[0].Round != 7 {
		t.Fatalf("cluster view = %v", view)
	}

	// A source that returns nil degrades back to [].
	s.PublishCluster(func() any { return nil })
	body = get(t, "http://"+s.Addr()+"/debug/gossip/cluster")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil view should serve [], got %q", body)
	}
}

func TestServerPprofEndpoint(t *testing.T) {
	s := startTestServer(t)
	body := get(t, "http://"+s.Addr()+"/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}
	index := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if !strings.Contains(index, "goroutine") {
		t.Fatalf("pprof index does not list profiles:\n%s", index)
	}
}
