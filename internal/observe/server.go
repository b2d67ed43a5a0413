package observe

import (
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Server is the opt-in debug listener: it serves every registered
// instrument as expvar-style JSON on /debug/vars, as Prometheus text
// format on /metrics, the runtime profiles on /debug/pprof/, the
// retained rumor traces on /debug/gossip/traces, and the merged cluster
// health view on /debug/gossip/cluster. A Server is bound at
// construction and serves until Close.
//
// Registration is name-keyed; names should be Prometheus-compatible
// ([a-z0-9_]). Snapshot functions run on the scrape goroutine, once
// per scrape each, so they must be safe to call concurrently with the
// instrumented code (the facades satisfy this by reading
// loop-serialized snapshots and atomic instruments).
type Server struct {
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	readings map[string]func() Reading
	hists    map[string]func() HistogramSnapshot
	traces   func() []TraceRecord
	peers    func() []PeerSnapshot
	cluster  func() any
}

// NewServer binds addr (host:port; ":0" picks a free port) and starts
// serving the debug endpoints.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("observe: debug listener: %w", err)
	}
	s := &Server{
		ln:       ln,
		readings: make(map[string]func() Reading),
		hists:    make(map[string]func() HistogramSnapshot),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", s.serveVars)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/gossip/traces", s.serveTraces)
	mux.HandleFunc("/debug/gossip/cluster", s.serveCluster)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener. In-flight scrapes are abandoned.
func (s *Server) Close() error { return s.srv.Close() }

// Reading is one source's instruments read at one instant. Var, when
// non-nil, is served whole on /debug/vars under the source's name; each
// counter and gauge is served under its own name on /metrics and
// /debug/vars.
type Reading struct {
	Var      any
	Counters map[string]uint64
	Gauges   map[string]float64
}

// PublishReading registers a source that is read once per scrape, so
// every instrument it renders comes from the same instant.
func (s *Server) PublishReading(name string, fn func() Reading) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readings[name] = fn
}

// PublishHistogram registers a histogram on /metrics (and /debug/vars,
// as {count, sum, p50, p95, p99}).
func (s *Server) PublishHistogram(name string, fn func() HistogramSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hists[name] = fn
}

// PublishTraces registers the rumor-trace source served on
// /debug/gossip/traces.
func (s *Server) PublishTraces(fn func() []TraceRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = fn
}

// PublishPeers registers the per-peer link stats source. Peers are
// rendered as labeled metric families on /metrics and as the
// "gossip_peers" array on /debug/vars; the snapshot must already be
// sorted by peer id (PeerTable.Snapshot is).
func (s *Server) PublishPeers(fn func() []PeerSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = fn
}

// PublishCluster registers the merged cluster health view served as
// JSON on /debug/gossip/cluster. The snapshot function must return a
// JSON-marshalable value; nil deregisters (the endpoint serves []).
func (s *Server) PublishCluster(fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cluster = fn
}

// registry is a point-in-time copy of the Server's registrations.
type registry struct {
	readings map[string]func() Reading
	hists    map[string]func() HistogramSnapshot
	traces   func() []TraceRecord
	peers    func() []PeerSnapshot
	cluster  func() any
}

// snapshotRegistry copies the registration maps so scrapes never hold
// the registration lock while running snapshot functions.
func (s *Server) snapshotRegistry() registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return registry{
		readings: maps.Clone(s.readings),
		hists:    maps.Clone(s.hists),
		traces:   s.traces,
		peers:    s.peers,
		cluster:  s.cluster,
	}
}

// read calls every reading source once and flattens the results.
func (r registry) read() (vars map[string]any, counts map[string]uint64, gauges map[string]float64) {
	vars, counts, gauges = map[string]any{}, map[string]uint64{}, map[string]float64{}
	for name, fn := range r.readings {
		rd := fn()
		if rd.Var != nil {
			vars[name] = rd.Var
		}
		maps.Copy(counts, rd.Counters)
		maps.Copy(gauges, rd.Gauges)
	}
	return vars, counts, gauges
}

// serveVars renders every registered instrument as one JSON object, in
// the spirit of package expvar: counters and gauges as numbers,
// histograms as summary objects, vars as their marshaled snapshots,
// plus the standard "memstats" block.
func (s *Server) serveVars(w http.ResponseWriter, _ *http.Request) {
	reg := s.snapshotRegistry()
	vars, counts, gauges := reg.read()
	out := make(map[string]any, len(vars)+len(counts)+len(gauges)+len(reg.hists)+2)
	for name, v := range vars {
		out[name] = v
	}
	for name, v := range counts {
		out[name] = v
	}
	for name, v := range gauges {
		out[name] = v
	}
	for name, fn := range reg.hists {
		snap := fn()
		out[name] = histogramSummary(snap)
	}
	if reg.peers != nil {
		peers := reg.peers()
		rows := make([]map[string]any, 0, len(peers))
		for _, p := range peers {
			rows = append(rows, map[string]any{
				"peer":              p.Peer,
				"messages_sent":     p.MessagesSent,
				"bytes_sent":        p.BytesSent,
				"messages_received": p.MessagesReceived,
				"bytes_received":    p.BytesReceived,
				"drops":             p.Drops,
				"send_errors":       p.SendErrors,
				"rtt_micros":        histogramSummary(p.RTT),
			})
		}
		out["gossip_peers"] = rows
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["memstats"] = map[string]any{
		"Alloc":      ms.Alloc,
		"TotalAlloc": ms.TotalAlloc,
		"Sys":        ms.Sys,
		"NumGC":      ms.NumGC,
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// serveMetrics renders the Prometheus text exposition format. Every
// section iterates sorted names (and, for per-peer families, sorted
// peer ids), so two scrapes of an idle process produce byte-identical
// bodies and scrapes diff cleanly.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.snapshotRegistry()
	_, counts, gauges := reg.read()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, name := range sortedKeys(counts) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, counts[name])
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name])
	}
	for _, name := range sortedKeys(reg.hists) {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		writeHistogram(&b, name, "", reg.hists[name]())
	}
	if reg.peers != nil {
		writePeerMetrics(&b, reg.peers())
	}
	w.Write([]byte(b.String()))
}

// writeHistogram renders one histogram family (cumulative le buckets,
// _sum, _count). labels, when non-empty, is an already-rendered label
// list without braces (`peer="a"`) applied to every sample; the le
// label is appended after it on bucket lines.
func writeHistogram(b *strings.Builder, name, labels string, snap HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, BucketHigh(i)-1, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	if labels == "" {
		fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", name, snap.Sum, name, snap.Count)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %d\n%s_count{%s} %d\n", name, labels, snap.Sum, name, labels, snap.Count)
	}
}

// peerCounterFamilies maps each per-peer counter family, in exposition
// order, to its snapshot field.
var peerCounterFamilies = []struct {
	name string
	get  func(PeerSnapshot) uint64
}{
	{"gossip_peer_bytes_received_total", func(p PeerSnapshot) uint64 { return p.BytesReceived }},
	{"gossip_peer_bytes_sent_total", func(p PeerSnapshot) uint64 { return p.BytesSent }},
	{"gossip_peer_drops_total", func(p PeerSnapshot) uint64 { return p.Drops }},
	{"gossip_peer_messages_received_total", func(p PeerSnapshot) uint64 { return p.MessagesReceived }},
	{"gossip_peer_messages_sent_total", func(p PeerSnapshot) uint64 { return p.MessagesSent }},
	{"gossip_peer_send_errors_total", func(p PeerSnapshot) uint64 { return p.SendErrors }},
}

// writePeerMetrics renders the per-peer link families with a peer
// label. Families are emitted in fixed (sorted) order and peers arrive
// sorted from PeerTable.Snapshot, so the exposition is stable.
func writePeerMetrics(b *strings.Builder, peers []PeerSnapshot) {
	if len(peers) == 0 {
		return
	}
	for _, fam := range peerCounterFamilies {
		fmt.Fprintf(b, "# TYPE %s counter\n", fam.name)
		for _, p := range peers {
			// %q escapes backslash, quote and newline — exactly the
			// Prometheus label-value escapes.
			fmt.Fprintf(b, "%s{peer=%q} %d\n", fam.name, p.Peer, fam.get(p))
		}
	}
	fmt.Fprintf(b, "# TYPE gossip_peer_rtt_micros histogram\n")
	for _, p := range peers {
		writeHistogram(b, "gossip_peer_rtt_micros",
			fmt.Sprintf("peer=%q", p.Peer), p.RTT)
	}
}

// histogramSummary is the /debug/vars JSON rendering of a histogram.
func histogramSummary(snap HistogramSnapshot) map[string]any {
	return map[string]any{
		"count": snap.Count,
		"sum":   snap.Sum,
		"mean":  snap.Mean(),
		"p50":   snap.Quantile(0.50),
		"p95":   snap.Quantile(0.95),
		"p99":   snap.Quantile(0.99),
	}
}

// serveTraces renders the retained rumor-lifecycle records as JSON.
func (s *Server) serveTraces(w http.ResponseWriter, _ *http.Request) {
	reg := s.snapshotRegistry()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if reg.traces == nil {
		w.Write([]byte("[]\n"))
		return
	}
	recs := reg.traces()
	type rec struct {
		Event string `json:"event"`
		Stage string `json:"stage"`
		Node  string `json:"node"`
		From  string `json:"from,omitempty"`
		Hop   int    `json:"hop"`
		Round uint64 `json:"round"`
		Rsn   string `json:"reason,omitempty"`
		Index uint64 `json:"index"`
		Time  string `json:"time"`
	}
	out := make([]rec, 0, len(recs))
	for _, r := range recs {
		out = append(out, rec{
			Event: fmt.Sprintf("%s/%d", r.Origin, r.Seq),
			Stage: r.Stage.String(),
			Node:  r.Node,
			From:  r.From,
			Hop:   r.Hop,
			Round: r.Round,
			Rsn:   r.Reason,
			Index: r.Index,
			Time:  r.Time.Format("2006-01-02T15:04:05.000000Z07:00"),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// serveCluster renders the merged cluster health view as JSON. With no
// registered source (health digests disabled, or a facade with no
// cluster view) it serves an empty array so pollers can treat the
// endpoint uniformly.
func (s *Server) serveCluster(w http.ResponseWriter, _ *http.Request) {
	reg := s.snapshotRegistry()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if reg.cluster == nil {
		w.Write([]byte("[]\n"))
		return
	}
	v := reg.cluster()
	if v == nil {
		w.Write([]byte("[]\n"))
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
