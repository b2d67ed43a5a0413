package recovery

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
)

func newTestNode(t *testing.T, id gossip.NodeID, peers gossip.PeerSampler, eng *Engine) *gossip.Node {
	t.Helper()
	n, err := gossip.NewNode(id,
		gossip.Params{Fanout: 2, Period: time.Second, MaxEvents: 8, MaxAge: 5},
		peers, rand.New(rand.NewPCG(1, uint64(len(id)))),
		gossip.WithExtensions(eng))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newTestEngine(t *testing.T, p Params) *Engine {
	t.Helper()
	p.Enabled = true
	eng, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params should validate via defaults, got %v", err)
	}
	if err := (Params{DigestLen: -1}).Validate(); err == nil {
		t.Error("negative digest length should fail validation")
	}
	if err := (Params{RequestBudget: -2}).Validate(); err == nil {
		t.Error("negative budget should fail validation")
	}
	p := Params{}.withDefaults()
	if p.DigestLen != DefaultDigestLen || p.RequestBudget != DefaultRequestBudget {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// TestDigestPiggyback: a ticking node with the engine advertises its
// buffered events in the outgoing digest.
func TestDigestPiggyback(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	n := newTestNode(t, "a", reg, eng)

	ev := n.Broadcast([]byte("x"))
	outs := n.Tick()
	if len(outs) == 0 {
		t.Fatal("expected fanout targets")
	}
	digest := outs[0].Msg.Digest
	found := false
	for _, id := range digest {
		if id == ev.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("digest %v does not advertise broadcast event %s", digest, ev.ID)
	}
	if eng.Stats().DigestsSent != 1 {
		t.Errorf("DigestsSent = %d, want 1", eng.Stats().DigestsSent)
	}
}

// TestPullRepair drives the full request/response exchange by hand:
// node b learns of an event only via a's digest, pulls it, and a serves
// it from the store.
func TestPullRepair(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	engA := newTestEngine(t, Params{})
	engB := newTestEngine(t, Params{})
	a := newTestNode(t, "a", reg, engA)
	b := newTestNode(t, "b", reg, engB)

	ev := a.Broadcast([]byte("lost-event"))
	outs := a.Tick()
	if len(outs) == 0 {
		t.Fatal("expected outgoing gossip")
	}
	// Deliver only the digest to b — the event list is "lost".
	stripped := outs[0].Msg.Clone()
	stripped.Events = nil
	b.Receive(stripped)
	if b.Seen(ev.ID) {
		t.Fatal("b should not have the event yet")
	}
	if engB.MissingLen() != 1 {
		t.Fatalf("b should track 1 missing event, has %d", engB.MissingLen())
	}

	// b's next tick emits the pull request.
	b.Tick()
	reqs := engB.TakeOutgoing()
	if len(reqs) != 1 {
		t.Fatalf("expected 1 request message, got %d", len(reqs))
	}
	req := reqs[0]
	if req.To != "a" || req.Msg.Kind != gossip.KindRecoveryRequest {
		t.Fatalf("bad request: to=%s kind=%v", req.To, req.Msg.Kind)
	}
	if len(req.Msg.Request) != 1 || req.Msg.Request[0] != ev.ID {
		t.Fatalf("request ids = %v, want [%s]", req.Msg.Request, ev.ID)
	}

	// a serves the request from its store.
	a.Receive(req.Msg)
	resps := engA.TakeOutgoing()
	if len(resps) != 1 {
		t.Fatalf("expected 1 response message, got %d", len(resps))
	}
	resp := resps[0]
	if resp.To != "b" || resp.Msg.Kind != gossip.KindRecoveryResponse {
		t.Fatalf("bad response: to=%s kind=%v", resp.To, resp.Msg.Kind)
	}

	// b receives the response: the event is delivered and settled.
	b.Receive(resp.Msg)
	if !b.Seen(ev.ID) {
		t.Error("b did not deliver the recovered event")
	}
	if engB.MissingLen() != 0 {
		t.Errorf("missing set should be empty, has %d", engB.MissingLen())
	}
	if st := engB.Stats(); st.EventsRecovered != 1 {
		t.Errorf("EventsRecovered = %d, want 1", st.EventsRecovered)
	}
	if st := engA.Stats(); st.EventsServed != 1 || st.RequestsReceived != 1 {
		t.Errorf("server stats = %+v, want 1 served / 1 request", st)
	}
}

// TestRequestBudget bounds the identifiers requested per round.
func TestRequestBudget(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{RequestBudget: 3, DigestLen: 64})
	b := newTestNode(t, "b", reg, eng)

	digest := make([]gossip.EventID, 10)
	for i := range digest {
		digest[i] = gossip.EventID{Origin: "a", Seq: uint64(i)}
	}
	b.Receive(&gossip.Message{From: "a", Digest: digest})
	b.Tick()
	outs := eng.TakeOutgoing()
	total := 0
	for _, out := range outs {
		total += len(out.Msg.Request)
	}
	if total != 3 {
		t.Errorf("requested %d ids, want budget 3", total)
	}
	if eng.Stats().IDsRequested != 3 {
		t.Errorf("IDsRequested = %d, want 3", eng.Stats().IDsRequested)
	}
}

// TestRetryAndGiveUp: un-answered requests are retried after
// retryRounds and abandoned after giveUpRounds.
func TestRetryAndGiveUp(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	b := newTestNode(t, "b", reg, eng)

	id := gossip.EventID{Origin: "a", Seq: 99}
	b.Receive(&gossip.Message{From: "a", Digest: []gossip.EventID{id}})

	requests := 0
	for round := 1; round <= giveUpRounds+5; round++ {
		b.Tick()
		for _, out := range eng.TakeOutgoing() {
			if out.Msg.Kind == gossip.KindRecoveryRequest {
				requests += len(out.Msg.Request)
			}
		}
		want := 1
		if round >= giveUpRounds {
			want = 0
		}
		if eng.MissingLen() != want {
			t.Fatalf("round %d: missing set has %d, want %d (give up at round %d)", round, eng.MissingLen(), want, giveUpRounds)
		}
	}
	// Advertised at round 0: rounds 1, 3, ..., 19 request (retry
	// cadence 2), round 20 gives up before an eleventh try.
	if want := giveUpRounds / retryRounds; requests != want {
		t.Errorf("sent %d requests, want %d (retry cadence %d, give up after %d rounds)", requests, want, retryRounds, giveUpRounds)
	}
	if eng.Stats().MissingGaveUp != 1 {
		t.Errorf("MissingGaveUp = %d, want 1", eng.Stats().MissingGaveUp)
	}
}

// TestMissingSettledByPush: an event that arrives through normal push
// gossip before the pull fires is dropped from the missing set without
// a request.
func TestMissingSettledByPush(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	b := newTestNode(t, "b", reg, eng)

	id := gossip.EventID{Origin: "a", Seq: 7}
	b.Receive(&gossip.Message{From: "a", Digest: []gossip.EventID{id}})
	// The event arrives via push before b's next tick.
	b.Receive(&gossip.Message{From: "a", Events: []gossip.Event{{ID: id}}})
	b.Tick()
	if outs := eng.TakeOutgoing(); len(outs) != 0 {
		t.Errorf("expected no requests, got %d messages", len(outs))
	}
	if eng.MissingLen() != 0 {
		t.Errorf("missing set should be empty, has %d", eng.MissingLen())
	}
}

// TestStoreServesEvictedEvents: events pushed out of the events buffer
// remain servable — the repair window outlives the push window.
func TestStoreServesEvictedEvents(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{StoreCapacity: 64})
	a := newTestNode(t, "a", reg, eng) // MaxEvents = 8

	first := a.Broadcast([]byte("old"))
	for i := 0; i < 20; i++ { // overflow the 8-slot buffer
		a.Broadcast(nil)
	}
	if a.BufferLen() > 8 {
		t.Fatalf("buffer overflowed: %d", a.BufferLen())
	}
	a.Receive(&gossip.Message{Kind: gossip.KindRecoveryRequest, From: "b",
		Request: []gossip.EventID{first.ID}})
	resps := eng.TakeOutgoing()
	if len(resps) != 1 || len(resps[0].Msg.Events) != 1 || resps[0].Msg.Events[0].ID != first.ID {
		t.Fatalf("evicted event not served: %+v", resps)
	}
}

// TestStoreGC: events older than RetainRounds are dropped and no longer
// served.
func TestStoreGC(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{RetainRounds: 3})
	a := newTestNode(t, "a", reg, eng)

	ev := a.Broadcast([]byte("x"))
	for i := 0; i < 12; i++ { // age the event far past RetainRounds + MaxAge
		a.Tick()
		eng.TakeOutgoing()
	}
	a.Receive(&gossip.Message{Kind: gossip.KindRecoveryRequest, From: "b",
		Request: []gossip.EventID{ev.ID}})
	if resps := eng.TakeOutgoing(); len(resps) != 0 {
		t.Errorf("GC'd event should not be served, got %d responses", len(resps))
	}
	if eng.Stats().EventsUnserved != 1 {
		t.Errorf("EventsUnserved = %d, want 1", eng.Stats().EventsUnserved)
	}
}

// TestStoreCapacityBound: the store never exceeds its capacity.
func TestStoreCapacityBound(t *testing.T) {
	s := newStore(4)
	for i := 0; i < 100; i++ {
		s.add(gossip.Event{ID: gossip.EventID{Origin: "a", Seq: uint64(i)}}, uint64(i), false, nil)
		if s.len() > 4 {
			t.Fatalf("store grew to %d, capacity 4", s.len())
		}
	}
	// The newest 4 survive.
	for i := 96; i < 100; i++ {
		if _, ok := s.get(gossip.EventID{Origin: "a", Seq: uint64(i)}); !ok {
			t.Errorf("newest event %d missing from store", i)
		}
	}
}

// TestStoreAddBorrowedAllocFree: the store retains received payloads
// beside the node's buffer, so for an event out of a Borrowed message it
// never keeps the datagram's bytes: it shares the copy the node's buffer
// holds, and copies for itself — once, when the event is new to the
// store, never for the duplicates that are most of what gossip receives —
// only when the node no longer buffers the event.
func TestStoreAddBorrowedAllocFree(t *testing.T) {
	s := newStore(8)
	n := newTestNode(t, "rx", membership.NewRegistry("rx", "a"), newTestEngine(t, Params{}))
	wire := []byte("payload in the transport's receive buffer")
	want := string(wire)

	// The node buffers event 1 (its own copy); event 2 it does not hold.
	held := gossip.Event{ID: gossip.EventID{Origin: "a", Seq: 1}, Payload: []byte(want)}
	n.Receive(&gossip.Message{From: "a", Events: []gossip.Event{held}})
	shared := gossip.Event{ID: held.ID, Payload: wire}
	absent := gossip.Event{ID: gossip.EventID{Origin: "a", Seq: 2}, Payload: wire}
	for _, ev := range []gossip.Event{shared, absent} {
		if added, _ := s.add(ev, 1, true, n); !added {
			t.Fatal("first add refused")
		}
	}
	for i := range wire {
		wire[i] = 0xDD // the next datagram lands in the buffer
	}
	if got, _ := s.get(shared.ID); &got.Payload[0] != &held.Payload[0] {
		t.Fatalf("store did not take the node's copy of a buffered event: %q", got.Payload)
	}
	if got, _ := s.get(absent.ID); string(got.Payload) != want {
		t.Fatalf("store kept an alias of the receive buffer: %q", got.Payload)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.add(absent, 2, true, n) }); allocs != 0 {
		t.Fatalf("re-adding a stored event allocates %v times, want 0", allocs)
	}
	owned := gossip.Event{ID: gossip.EventID{Origin: "a", Seq: 3}, Payload: []byte("owned")}
	s.add(owned, 2, false, nil)
	if got, _ := s.get(owned.ID); &got.Payload[0] != &owned.Payload[0] {
		t.Fatal("store copied a payload it was told it owns")
	}
}

// TestMaxMissingBound: advertisement flooding cannot grow the missing
// set beyond maxMissing.
func TestMaxMissingBound(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	b := newTestNode(t, "b", reg, eng)

	digest := make([]gossip.EventID, maxMissing+5)
	for i := range digest {
		digest[i] = gossip.EventID{Origin: "a", Seq: uint64(i)}
	}
	b.Receive(&gossip.Message{From: "a", Digest: digest})
	if eng.MissingLen() != maxMissing {
		t.Errorf("missing set = %d, want maxMissing %d", eng.MissingLen(), maxMissing)
	}
	if eng.Stats().MissingOverflow != 5 {
		t.Errorf("MissingOverflow = %d, want 5", eng.Stats().MissingOverflow)
	}
}

// TestDeterministicRequests: identical advertisement sequences produce
// identical request batches (map iteration must not leak in).
func TestDeterministicRequests(t *testing.T) {
	run := func() string {
		reg := membership.NewRegistry("a", "b", "c", "x")
		eng := newTestEngine(t, Params{RequestBudget: 8})
		x := newTestNode(t, "x", reg, eng)
		for round := 0; round < 4; round++ {
			for _, from := range []gossip.NodeID{"a", "b", "c"} {
				digest := make([]gossip.EventID, 6)
				for i := range digest {
					digest[i] = gossip.EventID{Origin: from, Seq: uint64(round*6 + i)}
				}
				x.Receive(&gossip.Message{From: from, Digest: digest})
			}
			x.Tick()
		}
		var trace string
		for _, out := range eng.TakeOutgoing() {
			trace += fmt.Sprintf("%s:%v;", out.To, out.Msg.Request)
		}
		return trace
	}
	if a, b := run(), run(); a != b {
		t.Errorf("request building not deterministic:\n  %s\n  %s", a, b)
	}
}

func TestDiffDigest(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	n := newTestNode(t, "a", reg, newTestEngine(t, Params{}))
	have := n.Broadcast(nil)
	want := gossip.EventID{Origin: "b", Seq: 1}
	missing := DiffDigest(n, []gossip.EventID{have.ID, want})
	if len(missing) != 1 || missing[0] != want {
		t.Errorf("DiffDigest = %v, want [%v]", missing, want)
	}
}

// BenchmarkRecoveryDigestDiff measures the receiver-side hot path of
// the anti-entropy subsystem: diffing an incoming digest against the
// node's seen set. Half the digest is known, half missing — the
// steady-state shape under loss.
func BenchmarkRecoveryDigestDiff(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	node, err := gossip.NewNode("a",
		gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		reg, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		b.Fatal(err)
	}
	digest := make([]gossip.EventID, DefaultDigestLen)
	for i := range digest {
		digest[i] = gossip.EventID{Origin: "b", Seq: uint64(i)}
		if i%2 == 0 {
			node.Receive(&gossip.Message{From: "b", Events: []gossip.Event{{ID: digest[i]}}})
		}
	}
	b.ReportMetric(float64(len(digest)), "ids/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if missing := DiffDigest(node, digest); len(missing) != len(digest)/2 {
			b.Fatalf("expected %d missing, got %d", len(digest)/2, len(missing))
		}
	}
}

// TestStatsAddSumsEveryField gives every counter a distinct value and
// requires Add to sum each one: a counter added to Stats but not to Add
// fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := range va.NumField() {
		if got, want := va.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
