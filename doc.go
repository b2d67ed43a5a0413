// Package adaptivegossip is a Go implementation of "Adaptive
// Gossip-Based Broadcast" (Rodrigues, Handurukande, Pereira, Guerraoui,
// Kermarrec — DSN 2003): lpbcast-style probabilistic broadcast with a
// feedback-free adaptation mechanism that lets every sender adjust its
// emission rate to the buffering resources of the most constrained
// group member and to the global congestion level.
//
// # One construction path
//
// The protocol is one state machine deployed in two shapes — a Node (a
// group of one) and a Cluster (a group of n) — and both facades
// construct the same way: a Config (nested per-mechanism sub-configs), a
// shared functional-option set (WithSeed, WithDeliver, WithTransport,
// WithOnMemberChange, ...) and a pluggable Transport.
//
// An in-process cluster with adaptation enabled:
//
//	cfg := adaptivegossip.DefaultConfig()
//	cluster, err := adaptivegossip.NewCluster(16, cfg,
//		adaptivegossip.WithDeliver(func(d adaptivegossip.Delivery) {
//			fmt.Printf("%s delivered %s\n", d.Node, d.Event.ID)
//		}))
//	if err != nil { ... }
//	ctx := context.Background()
//	if err := cluster.Start(ctx); err != nil { ... }
//	defer cluster.Close()
//	cluster.Publish(0, []byte("hello group"))
//
// A node on a real network uses NewNode over a UDP transport with an
// address book of peers; see ExampleNewNode and examples/udpcluster:
//
//	tr, err := adaptivegossip.NewUDPTransport(adaptivegossip.WithBind("0.0.0.0:7946"))
//	node, err := adaptivegossip.NewNode("host-1", cfg,
//		adaptivegossip.WithTransport(tr),
//		adaptivegossip.WithPeers(map[string]string{"host-2": "10.0.0.2:7946"}))
//
// # Transports
//
// Transport is a public seam: the built-in fabric is NewUDPTransport
// (real datagrams, with WithBind/WithLoss/WithMaxDatagram), the
// default of both facades; any custom fabric — TCP, QUIC, a
// deterministic mock — plugs in by implementing the two-method
// Transport interface.
//
// # Delivery streams and callbacks
//
// Deliveries surface two ways: the WithDeliver callback (invoked on
// the delivering member's gossip goroutine — fast, non-blocking
// observers) and the Events stream, a context-cancellable channel of
// Delivery{Node, Event} for pull-based consumers. Both observe
// the same delivery feed; a stream subscriber sees every delivery from
// the moment it subscribes unless it falls more than
// DefaultEventStreamBuffer behind (drops are counted in
// Stats.StreamDropped). Both facades also expose a unified Stats
// snapshot with the same shape.
//
// # Loss recovery
//
// Setting Config.Recovery.Enabled turns on a digest-based anti-entropy
// subsystem (internal/recovery): every gossip round piggybacks a
// compact digest of recently-seen event IDs, receivers pull the events
// they missed from the digest's sender, and senders serve the
// retransmissions from a bounded store that outlives the events
// buffer. This repairs losses that pure push gossip cannot — see
// examples/udpcluster's -loss flag and gossipsim -figure recovery.
//
// # Failure detection
//
// Setting Config.Failure.Enabled turns on a SWIM-style failure
// detector (internal/failure): each gossip round the node pings one
// random member, escalates unanswered probes through indirect
// ping-reqs to a suspect→confirm state machine, and piggybacks the
// alive/suspect/confirm verdicts on gossip — O(1) extra messages per
// node per round. Confirmed-crashed members are evicted from the
// node's gossip targets so fanout stops being wasted on the dead, and
// re-admitted when they prove alive again (incarnation-numbered
// refutations prevent stale rumors from burying live members). See
// examples/udpcluster's -churn flag and gossipsim -figure churn.
//
// # Evaluation
//
// The Simulate and SimulateRealtime functions expose the paper's
// experiment harness (internal/experiments): deterministic
// discrete-event simulation and real-time prototype runs of the same
// protocol state machine. cmd/gossipsim regenerates every figure of
// the paper and prints each as an aligned text table.
//
// # Architecture
//
// The protocol is a single-threaded state machine (internal/gossip for
// the lpbcast substrate, internal/core for the adaptation mechanism,
// internal/recovery for anti-entropy repair, internal/failure for
// failure detection) owned by a driver: the
// discrete-event scheduler (internal/sim) for simulations, or one
// goroutine per node (internal/runtime) for real deployments. README.md
// documents the full package map; API_STABILITY.md states the
// compatibility policy for this surface.
package adaptivegossip
