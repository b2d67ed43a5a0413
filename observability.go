package adaptivegossip

import (
	"adaptivegossip/internal/observe"
)

// groupObservability bundles the instrumentation state every facade
// owns: the alloc-free histogram blocks shared by the group's members
// (hop counts, drop ages, round sizes, runner latencies), the per-peer
// link telemetry table, the optional sampling trace recorder and the
// optional debug HTTP listener. One bundle serves the whole group —
// per-member observations pool.
type groupObservability struct {
	node   *observe.NodeMetrics
	runner *observe.RunnerMetrics
	peers  *observe.PeerTable
	rec    *observe.Recorder // nil unless TraceSampleRate > 0
	srv    *observe.Server   // nil unless DebugAddr set
}

// linkSetter is implemented by endpoints that can attribute their
// traffic to a per-peer telemetry table (the built-in UDP fabric). The
// install is an atomic pointer store on the endpoint, so facades may
// attach the table after the endpoint exists, even mid-traffic.
type linkSetter interface{ SetLinks(*observe.PeerTable) }

// newGroupObservability builds the instrument blocks from cfg. The
// debug listener is bound separately by bindServer once the facade is
// fully constructed — a scrape must never observe a half-built group.
func newGroupObservability(cfg ObservabilityConfig) *groupObservability {
	g := &groupObservability{
		node:   &observe.NodeMetrics{},
		runner: &observe.RunnerMetrics{},
		peers:  observe.NewPeerTable(observe.DefaultPeerTableCapacity),
	}
	if cfg.TraceSampleRate > 0 {
		g.rec = observe.NewRecorder(cfg.TraceSampleRate, cfg.TraceBufferSize)
	}
	return g
}

// attachLinks installs the group's peer table on a member endpoint (a
// no-op for custom transports without the telemetry seam).
func (g *groupObservability) attachLinks(ep Endpoint) {
	if ls, ok := ep.(linkSetter); ok {
		ls.SetLinks(g.peers)
	}
}

// bindServer binds the debug HTTP listener (no-op when addr is empty)
// and registers every instrument. stats is the group's unified
// snapshot and cluster the group's converged health view; both run on
// the scrape goroutine and must be safe to call concurrently with the
// group (every facade's Stats and ClusterHealth are). Call it as the
// last construction step.
func (g *groupObservability) bindServer(addr string, stats func() Stats, cluster func() []MemberHealth) error {
	if addr == "" {
		return nil
	}
	srv, err := observe.NewServer(addr)
	if err != nil {
		return err
	}
	g.srv = srv

	srv.PublishVar("gossip_stats", func() any { return stats() })
	counter := func(name string, get func(Stats) uint64) {
		srv.PublishCounter(name, func() uint64 { return get(stats()) })
	}
	counter("gossip_published_total", func(s Stats) uint64 { return s.Published })
	counter("gossip_publish_throttled_total", func(s Stats) uint64 { return s.Throttled })
	counter("gossip_delivered_total", func(s Stats) uint64 { return s.Delivered })
	counter("gossip_dropped_capacity_total", func(s Stats) uint64 { return s.DroppedCapacity })
	counter("gossip_dropped_expired_total", func(s Stats) uint64 { return s.DroppedExpired })
	counter("gossip_messages_sent_total", func(s Stats) uint64 { return s.MessagesSent })
	counter("gossip_events_recovered_total", func(s Stats) uint64 { return s.EventsRecovered })
	counter("gossip_probes_sent_total", func(s Stats) uint64 { return s.ProbesSent })
	counter("gossip_confirms_total", func(s Stats) uint64 { return s.Confirms })
	counter("gossip_stream_dropped_total", func(s Stats) uint64 { return s.StreamDropped })
	counter("gossip_recv_queue_drops_total", func(s Stats) uint64 { return s.Wire.RecvQueueDrops })
	counter("gossip_inbox_dropped_total", func(s Stats) uint64 { return s.InboxDropped })
	counter("gossip_wire_sent_total", func(s Stats) uint64 { return s.Wire.Sent })
	counter("gossip_wire_sent_bytes_total", func(s Stats) uint64 { return s.Wire.SentBytes })
	counter("gossip_wire_received_total", func(s Stats) uint64 { return s.Wire.Received })
	counter("gossip_wire_recv_bytes_total", func(s Stats) uint64 { return s.Wire.RecvBytes })
	counter("gossip_wire_read_errors_total", func(s Stats) uint64 { return s.Wire.ReadErrors })
	counter("gossip_wire_decode_errors_total", func(s Stats) uint64 { return s.Wire.DecodeErrors })
	counter("gossip_wire_split_chunks_total", func(s Stats) uint64 { return s.Wire.SplitChunks })
	counter("gossip_wire_precompression_bytes_total", func(s Stats) uint64 { return s.Wire.PreCompressionBytes })
	counter("gossip_wire_postcompression_bytes_total", func(s Stats) uint64 { return s.Wire.PostCompressionBytes })
	counter("gossip_health_digests_sent_total", func(s Stats) uint64 { return s.HealthDigestsSent })
	counter("gossip_health_digests_received_total", func(s Stats) uint64 { return s.HealthDigestsReceived })
	counter("gossip_health_digests_merged_total", func(s Stats) uint64 { return s.HealthDigestsMerged })

	srv.PublishGauge("gossip_nodes", func() float64 { return float64(stats().Nodes) })
	srv.PublishGauge("gossip_allowed_rate_min", func() float64 { return stats().MinAllowedRate })
	srv.PublishGauge("gossip_allowed_rate_max", func() float64 { return stats().MaxAllowedRate })
	srv.PublishGauge("gossip_allowed_rate_sum", func() float64 { return stats().SumAllowedRate })

	srv.PublishHistogram("gossip_deliver_hops", g.node.DeliverHops.Snapshot)
	srv.PublishHistogram("gossip_drop_age", g.node.DropAge.Snapshot)
	srv.PublishHistogram("gossip_round_events", g.node.RoundEvents.Snapshot)
	srv.PublishHistogram("gossip_tick_nanos", g.runner.TickNanos.Snapshot)
	srv.PublishHistogram("gossip_receive_nanos", g.runner.ReceiveNanos.Snapshot)

	srv.PublishPeers(g.peers.Snapshot)
	if cluster != nil {
		srv.PublishCluster(func() any { return cluster() })
	}
	if g.rec != nil {
		srv.PublishTraces(g.rec.Records)
	}
	return nil
}

// tracer returns the recorder as a nil-free Tracer interface value:
// plain nil when tracing is off, so the protocol hot path sees a nil
// interface (its zero-overhead branch), never a typed nil pointer.
func (g *groupObservability) tracer() observe.Tracer {
	if g.rec == nil {
		return nil
	}
	return g.rec
}

// debugAddr reports the bound debug listener address ("" when off).
func (g *groupObservability) debugAddr() string {
	if g.srv == nil {
		return ""
	}
	return g.srv.Addr()
}

// close stops the debug listener, if any.
func (g *groupObservability) close() {
	if g.srv != nil {
		g.srv.Close()
	}
}
