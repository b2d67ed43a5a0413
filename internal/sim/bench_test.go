package sim

import (
	"fmt"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
)

// BenchmarkSchedulerStep and BenchmarkNetworkSend are CI-gated against
// BENCH_7.json by benchgate: ns/op regressions beyond tolerance and ANY
// allocation on the steady-state schedule/execute and send/deliver
// paths fail the build.
// The slab reaches steady state once the free list is primed, so each
// benchmark warms up before resetting the timer.

// benchFn is a package-level no-op so scheduling it captures nothing.
var benchSink int

func benchFn() { benchSink++ }

// BenchmarkSchedulerStep measures the steady-state schedule+execute
// cycle against a standing population of pending events: one After and
// one Step per iteration with slot reuse, the shape of a large-n
// simulation's tick churn.
func BenchmarkSchedulerStep(b *testing.B) {
	s := NewScheduler(Epoch)
	const standing = 1024
	for i := 0; i < standing; i++ {
		s.After(time.Duration(i)*time.Microsecond, benchFn)
	}
	// Prime the free list so the slab stops growing.
	for i := 0; i < standing; i++ {
		s.After(time.Duration(i)*time.Microsecond, benchFn)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%standing)*time.Microsecond, benchFn)
		s.Step()
	}
}

// BenchmarkNetworkSend measures the full fabric hot path — counter
// bookkeeping, interning hits, latency draw, typed delivery record,
// heap insert, pop and handler dispatch — with one Send and one Step
// per iteration across an attached 64-node group.
func BenchmarkNetworkSend(b *testing.B) {
	s := NewScheduler(Epoch)
	n, err := NewNetwork(s, NetworkRNG(1), WithLatency(time.Millisecond, 5*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	const group = 64
	ids := make([]gossip.NodeID, group)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
		n.Attach(ids[i], func(*gossip.Message) { benchSink++ })
	}
	msg := &gossip.Message{From: ids[0]}
	// Warm the intern table and slab.
	for i := 0; i < 4*group; i++ {
		n.Send(ids[i%group], ids[(i+1)%group], msg)
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(ids[i%group], ids[(i+1)%group], msg)
		s.Step()
	}
}

// TestSchedulerStepAllocFree asserts the zero-allocation contract on
// the steady-state schedule+execute cycle: after the slab free list is
// primed, After+Step must not touch the heap at all.
func TestSchedulerStepAllocFree(t *testing.T) {
	s := NewScheduler(Epoch)
	for i := 0; i < 256; i++ {
		s.After(time.Duration(i)*time.Microsecond, benchFn)
	}
	for i := 0; i < 512; i++ {
		s.After(time.Microsecond, benchFn)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, benchFn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After+Step allocates %v allocs/op, want 0", allocs)
	}
}

// TestNetworkSendAllocFree asserts the zero-allocation contract on the
// steady-state send/deliver path, including with a region topology and
// message sizer configured (the scale sweep's configuration).
func TestNetworkSendAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		regions bool
		opts    []NetworkOption
	}{
		{"uniform-latency", false, []NetworkOption{WithLatency(time.Millisecond, 5*time.Millisecond)}},
		{"topology", true, []NetworkOption{
			WithTopology(NewTwoTierTopology(4,
				LatencyClass{Min: 2 * time.Millisecond, Max: 10 * time.Millisecond},
				LatencyClass{Min: 60 * time.Millisecond, Max: 120 * time.Millisecond})),
			WithMessageSizer(func(*gossip.Message) int { return 128 }),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(Epoch)
			n, err := NewNetwork(s, NetworkRNG(1), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]gossip.NodeID, 16)
			for i := range ids {
				ids[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
				n.Attach(ids[i], func(*gossip.Message) { benchSink++ })
				if tc.regions {
					if err := n.SetRegion(ids[i], i%4); err != nil {
						t.Fatal(err)
					}
				}
			}
			msg := &gossip.Message{From: ids[0]}
			for i := 0; i < 256; i++ {
				n.Send(ids[i%len(ids)], ids[(i+1)%len(ids)], msg)
				s.Step()
			}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				n.Send(ids[i%len(ids)], ids[(i+1)%len(ids)], msg)
				s.Step()
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Send+Step allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkSimulatedRound measures one full simulated gossip round of
// the paper's 60-node configuration (all ticks + deliveries).
func BenchmarkSimulatedRound(b *testing.B) {
	sched := NewScheduler(Epoch)
	network, err := NewNetwork(sched, DeriveRNG(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	const n = 60
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	reg := membership.NewRegistry(names...)
	nodes := make([]*core.AdaptiveNode, n)
	for i := range nodes {
		node, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:       names[i],
			Gossip:   gossip.Params{Fanout: 4, Period: 5 * time.Second, MaxEvents: 120, MaxAge: 10},
			Adaptive: true,
			Core:     core.DefaultParams(),
			Peers:    reg,
			RNG:      DeriveRNG(2, uint64(i)),
			Start:    Epoch,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
		network.Attach(names[i], func(m *gossip.Message) { node.Receive(m, sched.Now()) })
	}
	// Pre-load some traffic.
	for i := 0; i < 150; i++ {
		nodes[i%n].Publish(nil, sched.Now())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, node := range nodes {
			for _, out := range node.Tick(sched.Now()) {
				// RunFor below drains every delivery before any node's
				// next Tick refreshes its round message.
				network.Send(names[j], out.To, out.Msg)
			}
		}
		sched.RunFor(5 * time.Second)
		nodes[i%n].Publish(nil, sched.Now())
	}
	b.ReportMetric(n, "nodes")
}
