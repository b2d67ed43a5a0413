package membership

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"adaptivegossip/internal/gossip"
)

func newView(t *testing.T, self string, seeds ...string) *PartialView {
	t.Helper()
	v, err := NewPartialView(gossip.NodeID(self), ids(seeds...), 15,
		rand.New(rand.NewPCG(1, uint64(len(self)))))
	if err != nil {
		t.Fatalf("NewPartialView: %v", err)
	}
	return v
}

func TestPartialViewValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := NewPartialView("", nil, 15, rng); err == nil {
		t.Fatal("empty self: want error")
	}
	if _, err := NewPartialView("a", nil, 15, nil); err == nil {
		t.Fatal("nil rng: want error")
	}
	if _, err := NewPartialView("a", nil, 0, rng); err == nil {
		t.Fatal("view bound 0: want error")
	}
}

func TestPartialViewSeedsExcludeSelf(t *testing.T) {
	v := newView(t, "a", "a", "b", "c")
	if v.Contains("a") {
		t.Fatal("view contains self")
	}
	if v.ViewSize() != 2 {
		t.Fatalf("view size %d, want 2", v.ViewSize())
	}
}

func TestPartialViewBounded(t *testing.T) {
	const maxView = 5
	v, err := NewPartialView("self", nil, maxView, rand.New(rand.NewPCG(2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	var subs []gossip.NodeID
	for i := 0; i < 50; i++ {
		subs = append(subs, gossip.NodeID(fmt.Sprintf("n%d", i)))
	}
	v.OnReceive(nil, &Message{Subs: subs})
	if v.ViewSize() != maxView {
		t.Fatalf("view size %d, want bound %d", v.ViewSize(), maxView)
	}
	if len(v.subs) > maxView {
		t.Fatalf("subs pool %d exceeds bound %d", len(v.subs), maxView)
	}
}

func TestPartialViewOnTickPiggybacksSelf(t *testing.T) {
	v := newView(t, "a", "b", "c")
	msg := &Message{}
	v.OnTick(nil, msg)
	found := false
	for _, s := range msg.Subs {
		if s == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("OnTick subs %v missing self", msg.Subs)
	}
}

// TestPartialViewOnTickAllocFree: the round's subscriptions are
// appended into the node's reused message, so a round allocates nothing
// whether the pool is sampled (more entries than a message carries) or
// copied whole.
func TestPartialViewOnTickAllocFree(t *testing.T) {
	for _, pool := range []int{2, 24} {
		v, err := NewPartialView("self", nil, pool, rand.New(rand.NewPCG(7, 8)))
		if err != nil {
			t.Fatal(err)
		}
		var subs []gossip.NodeID
		for i := 0; i < 2*pool; i++ {
			subs = append(subs, gossip.NodeID(fmt.Sprintf("n%d", i)))
		}
		v.OnReceive(nil, &Message{Subs: subs})
		if len(v.subs) != pool {
			t.Fatalf("subs pool holds %d, want %d", len(v.subs), pool)
		}
		msg := &Message{}
		tick := func() {
			msg.Subs = msg.Subs[:0]
			v.OnTick(nil, msg)
		}
		if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
			t.Fatalf("pool of %d: OnTick allocates %v times per round, want 0", pool, allocs)
		}
		want := min(pool, subsPerGossip-1) + 1
		seen := map[gossip.NodeID]bool{}
		for _, s := range msg.Subs {
			seen[s] = true
		}
		if len(msg.Subs) != want || len(seen) != want || msg.Subs[0] != "self" {
			t.Fatalf("pool of %d: OnTick subs %v, want self then %d distinct pool entries", pool, msg.Subs, want-1)
		}
	}
}

func TestPartialViewSamplePeers(t *testing.T) {
	v := newView(t, "a", "b", "c", "d", "e")
	rng := rand.New(rand.NewPCG(4, 5))
	got := v.AppendPeers(nil, "a", 3, rng)
	if len(got) != 3 {
		t.Fatalf("sample size %d, want 3", len(got))
	}
	seen := map[gossip.NodeID]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate %s", id)
		}
		seen[id] = true
	}
	if got := v.AppendPeers(nil, "a", 0, rng); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	all := v.AppendPeers(nil, "a", 99, rng)
	if len(all) != 4 {
		t.Fatalf("oversample returned %d, want full view 4", len(all))
	}
}

// TestPartialViewGossipConvergence wires a small group exchanging only
// piggybacked membership and checks everyone ends up known.
func TestPartialViewGossipConvergence(t *testing.T) {
	const n, maxView = 20, 8
	views := make([]*PartialView, n)
	names := make([]gossip.NodeID, n)
	for i := range views {
		names[i] = gossip.NodeID(fmt.Sprintf("n%02d", i))
	}
	for i := range views {
		// Ring seeding: each node knows only its successor.
		v, err := NewPartialView(names[i], []gossip.NodeID{names[(i+1)%n]}, maxView,
			rand.New(rand.NewPCG(uint64(i), 99)))
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	rng := rand.New(rand.NewPCG(123, 456))
	known := func() int {
		set := map[gossip.NodeID]struct{}{}
		for _, v := range views {
			for _, m := range v.View() {
				set[m] = struct{}{}
			}
		}
		return len(set)
	}
	for round := 0; round < 30; round++ {
		for i, v := range views {
			targets := v.AppendPeers(nil, names[i], 3, rng)
			msg := &Message{From: names[i]}
			v.OnTick(nil, msg)
			for _, to := range targets {
				for j, name := range names {
					if name == to {
						views[j].OnReceive(nil, msg)
					}
				}
			}
		}
	}
	if k := known(); k < n-1 {
		t.Fatalf("after gossip, only %d/%d nodes known somewhere", k, n)
	}
	// Every view stayed within bounds.
	for i, v := range views {
		if v.ViewSize() > maxView {
			t.Fatalf("view %d size %d exceeds bound", i, v.ViewSize())
		}
	}
}
