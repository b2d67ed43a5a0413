package health

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// twoPeers is the test node's view: two peers, both sampled every round.
type twoPeers struct{}

func (twoPeers) AppendPeers(dst []gossip.NodeID, _ gossip.NodeID, _ int, _ *rand.Rand) []gossip.NodeID {
	return append(dst, "peer-a", "peer-b")
}

func testNode(t *testing.T, id gossip.NodeID, exts ...gossip.Extension) *gossip.Node {
	t.Helper()
	n, err := gossip.NewNode(id, gossip.Params{
		Fanout: 2, Period: time.Second, MaxEvents: 16, MaxAge: 5,
	}, twoPeers{}, rand.New(rand.NewPCG(1, 1)), gossip.WithExtensions(exts...))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func fixedClock() time.Time { return time.Unix(1_700_000_000, 42e6) }

func digestFor(node gossip.NodeID, round uint64) gossip.HealthDigest {
	return gossip.HealthDigest{Node: node, Round: round, Delivered: round * 10}
}

func TestEngineAttachesSelfAndRelays(t *testing.T) {
	e := New("self", Params{Enabled: true, DigestsPerMessage: 3}, nil)
	e.Now = fixedClock
	n := testNode(t, "self", e)

	out := n.Tick()
	h := out[0].Msg.Health
	if len(h) != 1 {
		t.Fatalf("first tick: want own digest only, got %d", len(h))
	}
	if h[0].Node != "self" || h[0].WallMillis != uint64(fixedClock().UnixMilli()) {
		t.Fatalf("own digest malformed: %+v", h[0])
	}

	// Learn four members; budget 3 = self + 2 relayed, round-robin.
	for _, id := range []gossip.NodeID{"d", "b", "c", "a"} {
		n.Receive(&gossip.Message{From: id, Health: []gossip.HealthDigest{digestFor(id, 1)}})
	}
	seen := map[gossip.NodeID]int{}
	for i := 0; i < 2; i++ {
		prev := h[0].Round
		h = n.Tick()[0].Msg.Health
		if len(h) != 3 {
			t.Fatalf("tick %d: want 3 digests, got %d", i, len(h))
		}
		if h[0].Node != "self" {
			t.Fatalf("tick %d: own digest not first: %v", i, h[0].Node)
		}
		if h[0].Round <= prev {
			t.Fatalf("tick %d: own digest not refreshed (round %d after %d)", i, h[0].Round, prev)
		}
		for _, d := range h[1:] {
			seen[d.Node]++
		}
	}
	// Two ticks x two relays cycle the whole four-member ring once.
	for _, id := range []gossip.NodeID{"a", "b", "c", "d"} {
		if seen[id] != 1 {
			t.Fatalf("round-robin skipped or repeated %s: %v", id, seen)
		}
	}
}

func TestEngineMergeFreshnessWins(t *testing.T) {
	e := New("self", Params{Enabled: true}, nil)
	n := testNode(t, "self", e)

	n.Receive(&gossip.Message{From: "peer-a", Health: []gossip.HealthDigest{digestFor("peer-a", 5)}})
	n.Receive(&gossip.Message{From: "peer-b", Health: []gossip.HealthDigest{
		digestFor("peer-a", 3), // stale: ignored
		digestFor("peer-a", 9), // fresher: wins
		digestFor("self", 100), // about the receiver: ignored
		{},                     // empty node: ignored
		digestFor("peer-b", 1), // new member
	}})

	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 members (self has not ticked), got %d", len(snap))
	}
	if snap[0].Digest.Node != "peer-a" || snap[0].Digest.Round != 9 {
		t.Fatalf("freshest digest did not win: %+v", snap[0].Digest)
	}
	if snap[1].Digest.Node != "peer-b" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	st := e.Stats()
	if st.DigestsReceived != 6 || st.DigestsMerged != 3 || st.DigestsIgnored != 3 {
		t.Fatalf("stats mismatch: %+v", st)
	}
}

func TestEngineMaxMembersBound(t *testing.T) {
	e := New("self", Params{Enabled: true}, nil)
	n := testNode(t, "self", e)
	for i := range maxMembers + 1 {
		id := gossip.NodeID(fmt.Sprintf("m%d", i))
		n.Receive(&gossip.Message{From: id, Health: []gossip.HealthDigest{digestFor(id, 1)}})
	}
	if got := e.Members(); got != maxMembers {
		t.Fatalf("member table exceeded bound: %d", got)
	}
	if st := e.Stats(); st.DigestsIgnored != 1 {
		t.Fatalf("over-capacity digest not counted ignored: %+v", st)
	}
}

func TestEngineAugmentAndMergedHops(t *testing.T) {
	e := New("self", Params{Enabled: true}, func(d *gossip.HealthDigest) {
		d.BytesSent = 4096
		d.DeliverHops = observe.HistogramSnapshot{Count: 2, Sum: 3}
	})
	e.Now = fixedClock
	n := testNode(t, "self", e)
	n.Tick()

	remote := digestFor("peer-a", 1)
	remote.DeliverHops = observe.HistogramSnapshot{Count: 5, Sum: 11}
	n.Receive(&gossip.Message{From: "peer-a", Health: []gossip.HealthDigest{remote}})

	snap := e.Snapshot()
	var own *gossip.HealthDigest
	for i := range snap {
		if snap[i].Digest.Node == "self" {
			own = &snap[i].Digest
		}
	}
	if own == nil || own.BytesSent != 4096 {
		t.Fatalf("augment did not reach self digest: %+v", snap)
	}
	merged := e.MergedDeliverHops()
	if merged.Count != 7 || merged.Sum != 14 {
		t.Fatalf("merged hops mismatch: %+v", merged)
	}
}

func TestEngineStaleness(t *testing.T) {
	e := New("self", Params{Enabled: true}, nil)
	n := testNode(t, "self", e)
	n.Receive(&gossip.Message{From: "peer-a", Health: []gossip.HealthDigest{digestFor("peer-a", 1)}})
	n.Tick()
	n.Tick()
	n.Tick()
	for _, m := range e.Snapshot() {
		switch m.Digest.Node {
		case "peer-a":
			if m.StalenessRounds != 3 {
				t.Fatalf("peer-a staleness: want 3 rounds, got %d", m.StalenessRounds)
			}
		case "self":
			if m.StalenessRounds != 0 {
				t.Fatalf("self staleness: want 0, got %d", m.StalenessRounds)
			}
		}
	}
}
