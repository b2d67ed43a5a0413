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
		g.rec = observe.NewRecorder(cfg.TraceSampleRate, observe.DefaultTraceCapacity)
	}
	return g
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

	// One Stats snapshot per scrape: every counter and gauge of a scrape
	// comes from the same instant, and each member is visited once.
	srv.PublishReading("gossip_stats", func() observe.Reading {
		s := stats()
		return observe.Reading{
			Var: s,
			Counters: map[string]uint64{
				"gossip_published_total":                  s.Published,
				"gossip_publish_throttled_total":          s.Throttled,
				"gossip_delivered_total":                  s.Delivered,
				"gossip_dropped_capacity_total":           s.DroppedCapacity,
				"gossip_dropped_expired_total":            s.DroppedExpired,
				"gossip_dropped_stale_total":              s.DroppedStale,
				"gossip_messages_sent_total":              s.MessagesSent,
				"gossip_events_recovered_total":           s.EventsRecovered,
				"gossip_probes_sent_total":                s.ProbesSent,
				"gossip_confirms_total":                   s.Confirms,
				"gossip_stream_dropped_total":             s.StreamDropped,
				"gossip_recv_queue_drops_total":           s.Wire.RecvQueueDrops,
				"gossip_inbox_dropped_total":              s.InboxDropped,
				"gossip_wire_sent_total":                  s.Wire.Sent,
				"gossip_wire_sent_bytes_total":            s.Wire.SentBytes,
				"gossip_wire_received_total":              s.Wire.Received,
				"gossip_wire_recv_bytes_total":            s.Wire.RecvBytes,
				"gossip_wire_read_errors_total":           s.Wire.ReadErrors,
				"gossip_wire_decode_errors_total":         s.Wire.DecodeErrors,
				"gossip_wire_split_chunks_total":          s.Wire.SplitChunks,
				"gossip_wire_precompression_bytes_total":  s.Wire.PreCompressionBytes,
				"gossip_wire_postcompression_bytes_total": s.Wire.PostCompressionBytes,
				"gossip_health_digests_sent_total":        s.HealthDigestsSent,
				"gossip_health_digests_received_total":    s.HealthDigestsReceived,
				"gossip_health_digests_merged_total":      s.HealthDigestsMerged,
				"gossip_peers_refused_total":              s.PeersRefused,
			},
			Gauges: map[string]float64{
				"gossip_nodes":            float64(s.Nodes),
				"gossip_allowed_rate_min": s.MinAllowedRate,
				"gossip_allowed_rate_max": s.MaxAllowedRate,
				"gossip_allowed_rate_sum": s.SumAllowedRate,
			},
		}
	})

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
