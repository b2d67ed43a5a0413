package membership

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

// TestPartialViewDrivesGossipNodes wires real gossip.Nodes whose only
// peer knowledge is an lpbcast partial view maintained by piggybacked
// subscriptions — no registry anywhere — and checks that a broadcast
// still reaches the whole group.
func TestPartialViewDrivesGossipNodes(t *testing.T) {
	const n, maxView = 24, 6

	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%02d", i))
	}
	views := make([]*PartialView, n)
	nodes := make([]*gossip.Node, n)
	delivered := make([]int, n)
	for i := range names {
		// Ring seeding: node i knows only node i+1.
		v, err := NewPartialView(names[i], []gossip.NodeID{names[(i+1)%n]}, maxView,
			rand.New(rand.NewPCG(uint64(i), 7)))
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
		i := i
		node, err := gossip.NewNode(names[i],
			gossip.Params{Fanout: 3, Period: time.Second, MaxEvents: 30, MaxAge: 8},
			v, rand.New(rand.NewPCG(uint64(i), 8)),
			gossip.WithDeliver(func(gossip.Event) { delivered[i]++ }),
			gossip.WithExtensions(v),
		)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	index := map[gossip.NodeID]int{}
	for i, name := range names {
		index[name] = i
	}

	round := func() {
		type env struct {
			to  gossip.NodeID
			msg *gossip.Message
		}
		var mail []env
		for _, node := range nodes {
			for _, out := range node.Tick() {
				mail = append(mail, env{out.To, out.Msg})
			}
		}
		for _, e := range mail {
			nodes[index[e.to]].Receive(e.msg)
		}
	}

	// Let membership knowledge spread before broadcasting.
	for r := 0; r < 10; r++ {
		round()
	}
	nodes[0].Broadcast([]byte("via partial views"))
	for r := 0; r < 10; r++ {
		round()
	}

	reached := 0
	for i := range delivered {
		if delivered[i] > 0 {
			reached++
		}
	}
	if reached < n {
		t.Fatalf("broadcast reached %d/%d nodes through partial views", reached, n)
	}
	for i, v := range views {
		if v.ViewSize() > maxView {
			t.Fatalf("node %d view grew to %d", i, v.ViewSize())
		}
	}
}
