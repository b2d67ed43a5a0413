package membership

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"adaptivegossip/internal/failure"
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

func TestPartialViewUnsubRemovesAndPropagates(t *testing.T) {
	v := newView(t, "a", "b", "c", "d")
	v.OnReceive(nil, &Message{Unsubs: ids("c")})
	if v.Contains("c") {
		t.Fatal("c still in view after unsub")
	}
	// The unsub is forwarded on subsequent gossip.
	msg := &Message{}
	v.OnTick(nil, msg)
	found := false
	for _, u := range msg.Unsubs {
		if u == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unsub for c not piggybacked: %v", msg.Unsubs)
	}
	// A subscription for a recently unsubscribed node is not resurrected.
	v.OnReceive(nil, &Message{Subs: ids("c")})
	if v.Contains("c") {
		t.Fatal("c resurrected while unsub pending")
	}
}

func TestPartialViewSamplePeers(t *testing.T) {
	v := newView(t, "a", "b", "c", "d", "e")
	rng := rand.New(rand.NewPCG(4, 5))
	got := v.SamplePeers("a", 3, rng)
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
	if got := v.SamplePeers("a", 0, rng); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	all := v.SamplePeers("a", 99, rng)
	if len(all) != 4 {
		t.Fatalf("oversample returned %d, want full view 4", len(all))
	}
}

func TestPartialViewUnsubscribeSelf(t *testing.T) {
	v := newView(t, "a", "b")
	v.Unsubscribe()
	msg := &Message{}
	v.OnTick(nil, msg)
	found := false
	for _, u := range msg.Unsubs {
		if u == "a" {
			found = true
		}
	}
	if !found {
		t.Fatal("own unsubscription not piggybacked")
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
			targets := v.SamplePeers(names[i], 3, rng)
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

// TestPartialViewEvictsConfirmedDeadPeer is the regression test for the
// view's blind spot: lpbcast's subscription gossip never removes a
// crashed peer, so detector confirm events must. Wiring a failure
// engine's callback to RemovePeer evicts the dead peer from the view
// (and spreads its death as an unsubscription); a later proof of life
// re-admits it.
func TestPartialViewEvictsConfirmedDeadPeer(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 9))
	peers := []gossip.NodeID{"p1", "p2", "p3", "dead"}
	view, err := NewPartialView("self", peers, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := failure.NewEngine("self", failure.Params{Enabled: true, SuspicionTimeoutRounds: 2}, view, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetOnChange(func(id gossip.NodeID, status gossip.MemberStatus) {
		switch status {
		case gossip.MemberConfirmed:
			view.RemovePeer(id)
		case gossip.MemberAlive:
			view.ReadmitPeer(id)
		}
	})

	// Rounds: the engine probes view members; every peer except "dead"
	// keeps gossiping (proof of life), so only "dead" escalates through
	// suspect to confirm.
	for round := 0; round < 40 && view.Contains("dead"); round++ {
		msg := &gossip.Message{Kind: gossip.KindGossip, From: "self"}
		eng.OnTick(nil, msg)
		eng.TakeOutgoing()
		for _, p := range peers[:3] {
			eng.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: p})
		}
	}
	if view.Contains("dead") {
		t.Fatalf("crashed peer still in view after detection window: view=%v", view.View())
	}
	for _, p := range peers[:3] {
		if !view.Contains(p) {
			t.Fatalf("live peer %s evicted: view=%v", p, view.View())
		}
	}
	// The death propagates as an unsubscription on the next gossip.
	out := &gossip.Message{From: "self"}
	view.OnTick(nil, out)
	found := false
	for _, u := range out.Unsubs {
		if u == "dead" {
			found = true
		}
	}
	if !found {
		t.Fatalf("eviction not spread as unsub: %v", out.Unsubs)
	}
	// Stale subscriptions must not resurrect the dead peer...
	view.OnReceive(nil, &gossip.Message{Subs: []gossip.NodeID{"dead"}})
	if view.Contains("dead") {
		t.Fatal("stale subscription resurrected the evicted peer")
	}
	// ...but a genuine proof of life (detector alive event) re-admits.
	eng.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "dead"})
	if !view.Contains("dead") {
		t.Fatal("revived peer not re-admitted to the view")
	}
}
