package adaptivegossip_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"adaptivegossip"
)

// exampleConfig is a demo-friendly protocol configuration: fast rounds
// so the examples finish in milliseconds.
func exampleConfig() adaptivegossip.Config {
	cfg := adaptivegossip.DefaultConfig()
	cfg.Period = 20 * time.Millisecond
	cfg.BufferCapacity = 40
	return cfg
}

// ExampleNewCluster broadcasts one message through an in-process
// cluster and consumes the delivery stream until every member has it.
func ExampleNewCluster() {
	cluster, err := adaptivegossip.NewCluster(4, exampleConfig(),
		adaptivegossip.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	events := cluster.Events(ctx)
	if err := cluster.Start(ctx); err != nil {
		log.Fatal(err)
	}

	cluster.Publish(0, []byte("hello group"))
	reached := map[adaptivegossip.NodeID]bool{}
	for d := range events {
		reached[d.Node] = true
		if len(reached) == cluster.Len() {
			break
		}
	}
	fmt.Printf("delivered to %d nodes\n", len(reached))
	// Output: delivered to 4 nodes
}

// ExampleNewNode wires two UDP nodes on loopback by exchanging bound
// addresses, then broadcasts across the real wire.
func ExampleNewNode() {
	cfg := exampleConfig()
	alpha, err := adaptivegossip.NewNode("alpha", cfg, adaptivegossip.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer alpha.Close()
	beta, err := adaptivegossip.NewNode("beta", cfg, adaptivegossip.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	defer beta.Close()

	// Address books both ways (or pass WithPeers up front).
	if err := alpha.AddPeer("beta", beta.Addr()); err != nil {
		log.Fatal(err)
	}
	if err := beta.AddPeer("alpha", alpha.Addr()); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	events := beta.Events(ctx)
	if err := alpha.Start(ctx); err != nil {
		log.Fatal(err)
	}
	if err := beta.Start(ctx); err != nil {
		log.Fatal(err)
	}

	alpha.Publish([]byte("over the wire"))
	d := <-events
	fmt.Printf("%s received %q\n", d.Node, d.Event.Payload)
	// Output: beta received "over the wire"
}

// ExampleNewUDPTransport binds a production-style listen address
// explicitly and hands the fabric to a node.
func ExampleNewUDPTransport() {
	fabric, err := adaptivegossip.NewUDPTransport(
		adaptivegossip.WithBind("127.0.0.1:0"), // a real deployment pins host:port
	)
	if err != nil {
		log.Fatal(err)
	}
	node, err := adaptivegossip.NewNode("host-1", exampleConfig(),
		adaptivegossip.WithTransport(fabric), // the node now owns it
		adaptivegossip.WithPeers(map[string]string{"host-2": "127.0.0.1:19746"}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	fmt.Printf("bound=%v peers=%d\n", node.Addr() != "", len(node.Members())-1)
	// Output: bound=true peers=1
}

// ExampleSimulate reruns a small deterministic discrete-event
// experiment — the harness behind the paper's figures.
func ExampleSimulate() {
	cfg := adaptivegossip.DefaultSimConfig()
	cfg.N = 16
	cfg.Fanout = 3
	cfg.Period = time.Second
	cfg.Buffer = 25
	cfg.OfferedRate = 5
	cfg.Warmup = 20 * time.Second
	cfg.Duration = 60 * time.Second
	res, err := adaptivegossip.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy=%v\n", res.Summary.MeanReceiversPct > 95)
	// Output: healthy=true
}
