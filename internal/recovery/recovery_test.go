package recovery

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
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

func newTestEngine(t testing.TB, p Params) *Engine {
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

// TestServeBoundedPerRequest: a request buys at most one copy of each
// id it lists and at most RequestBudget events, however many it lists;
// the rest are counted unserved. Served in full, one stored id listed
// 1,000 times drew 1,000 copies, and 1,000 distinct stored ids 1,000
// events, to a requester name nothing checks.
func TestServeBoundedPerRequest(t *testing.T) {
	stored := func(i int) gossip.EventID { return gossip.EventID{Origin: "o", Seq: uint64(i)} }
	for _, tc := range []struct {
		name    string
		request func(i int) gossip.EventID
		served  int
	}{
		{"one id listed 1,000 times", func(int) gossip.EventID { return stored(0) }, 1},
		{"1,000 distinct ids", stored, DefaultRequestBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := newTestEngine(t, Params{})
			a := newTestNode(t, "a", membership.NewRegistry("a", "b"), eng)
			for i := range 1000 {
				eng.observe(a, gossip.Event{ID: stored(i), Payload: []byte("x")}, false)
			}
			req := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "b"}
			for i := range 1000 {
				req.Request = append(req.Request, tc.request(i))
			}
			a.Receive(req)
			resps := eng.TakeOutgoing()
			if len(resps) != 1 {
				t.Fatalf("%d responses, want 1", len(resps))
			}
			events := resps[0].Msg.Events
			if len(events) != tc.served {
				t.Fatalf("served %d events, want %d", len(events), tc.served)
			}
			seen := map[gossip.EventID]bool{}
			for _, ev := range events {
				if seen[ev.ID] {
					t.Fatalf("%v served twice in one response", ev.ID)
				}
				seen[ev.ID] = true
			}
			st := eng.Stats()
			if st.EventsServed != uint64(tc.served) || st.EventsUnserved != uint64(1000-tc.served) {
				t.Fatalf("served %d, unserved %d, want %d and %d", st.EventsServed, st.EventsUnserved, tc.served, 1000-tc.served)
			}
			if c := cap(eng.served); c > DefaultRequestBudget {
				t.Fatalf("response scratch grew to %d events, want at most %d", c, DefaultRequestBudget)
			}
		})
	}
}

// TestStoreGC: events older than retainRounds are dropped and no longer
// served.
func TestStoreGC(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	a := newTestNode(t, "a", reg, eng)

	ev := a.Broadcast([]byte("x"))
	for range retainRounds + 12 { // age the event far past retainRounds + MaxAge
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

func mustStore(t *testing.T, capacity int) *store {
	t.Helper()
	s, err := newStore(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreCapacityBound: the store never exceeds its capacity, and
// taking in events past it, evicting and GC allocate nothing.
func TestStoreCapacityBound(t *testing.T) {
	s := mustStore(t, 4)
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
	seq := uint64(100)
	if allocs := testing.AllocsPerRun(100, func() {
		s.add(gossip.Event{ID: gossip.EventID{Origin: "a", Seq: seq}}, seq, false, nil)
		s.gc(seq, int(seq%8)) // at times the GC evicts, at times the capacity
		seq++
	}); allocs != 0 {
		t.Fatalf("add and gc allocate %v times, want 0", allocs)
	}
}

// TestStoreAddBorrowedAllocFree: the store retains received payloads
// beside the node's buffer, so for an event out of a Borrowed message it
// never keeps the datagram's bytes: it shares the copy the node's buffer
// holds, and copies for itself — once, when the event is new to the
// store, never for the duplicates that are most of what gossip receives —
// only when the node no longer buffers the event.
func TestStoreAddBorrowedAllocFree(t *testing.T) {
	s := mustStore(t, 8)
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

// TestDiffDigest: a received digest's ids the node has not seen, and
// those alone, join the missing set and are pulled from the digest's
// sender.
func TestDiffDigest(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	n := newTestNode(t, "a", reg, eng)
	have := n.Broadcast(nil)
	want := gossip.EventID{Origin: "b", Seq: 1}
	eng.OnReceive(n, &gossip.Message{Kind: gossip.KindGossip, From: "b", Digest: []gossip.EventID{have.ID, want}})
	if eng.MissingLen() != 1 {
		t.Fatalf("MissingLen = %d, want 1", eng.MissingLen())
	}
	n.Tick()
	reqs := eng.TakeOutgoing()
	if len(reqs) != 1 || reqs[0].To != "b" || !reflect.DeepEqual(reqs[0].Msg.Request, []gossip.EventID{want}) {
		t.Fatalf("requests %+v, want [%v] from b", reqs, want)
	}
}

// BenchmarkRecoveryDigestDiff measures the receiver-side hot path of
// the anti-entropy subsystem: a gossip message carrying a digest, diffed
// against the node's seen set. Half the digest is known, half missing —
// the steady-state shape under loss — and the missing half is tracked
// from the first iteration on, as it stays while its pull is answered.
func BenchmarkRecoveryDigestDiff(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(b, Params{})
	node, err := gossip.NewNode("a",
		gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		reg, rand.New(rand.NewPCG(21, 22)), gossip.WithExtensions(eng))
	if err != nil {
		b.Fatal(err)
	}
	msg := &gossip.Message{Kind: gossip.KindGossip, From: "b", Digest: make([]gossip.EventID, DefaultDigestLen)}
	for i := range msg.Digest {
		msg.Digest[i] = gossip.EventID{Origin: "b", Seq: uint64(i)}
		if i%2 == 0 {
			node.Receive(&gossip.Message{From: "b", Events: []gossip.Event{{ID: msg.Digest[i]}}})
		}
	}
	b.ReportMetric(float64(len(msg.Digest)), "ids/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.OnReceive(node, msg)
	}
	b.StopTimer()
	if eng.MissingLen() != len(msg.Digest)/2 {
		b.Fatalf("%d ids missing, want %d", eng.MissingLen(), len(msg.Digest)/2)
	}
}

// BenchmarkRecoveryRound measures the engine's bookkeeping of one round
// in udp_full's shape, at the default DigestLen, 128 ids, and store of
// 1,024 events. Ungated: it compares the digest's, the store's and the
// missing set's cost across changes of their layout.
//
//   - observed: 12 new events a round and the 120-event buffer observed
//     5 times — the member's own round and four received messages,
//     nearly all duplicates — the store's GC, and the digest listed for
//     the round message.
//   - unseen-digest: a digest naming 8 ids the member has not seen, from
//     two advertisers; the round's requests; and a response bringing
//     the even-numbered ids requested, so the odd ones are requested
//     until they are given up, about 90 ids tracked at a time.
func BenchmarkRecoveryRound(b *testing.B) {
	const members, buffered, births, observed = 16, 120, 12, 5
	names := make([]gossip.NodeID, members)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	b.Run("observed", func(b *testing.B) {
		e := newTestEngine(b, Params{})
		payload := make([]byte, 32)
		// Event k of the group is seq k/members of member k%members; the
		// buffer holds the newest 120.
		newest := uint64(buffered)
		round := func() {
			e.round++
			e.stats.StoreEvicted += uint64(e.store.gc(e.round, retainRounds))
			newest += births
			for range observed {
				for k := newest - buffered; k < newest; k++ {
					e.observe(nil, gossip.Event{ID: gossip.EventID{Origin: names[k%members], Seq: k / members}, Payload: payload}, false)
				}
			}
			e.digestScratch = e.digest.AppendIDs(e.digestScratch[:0])
		}
		for range 2 * retainRounds { // the store at its GC horizon
			round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	})
	b.Run("unseen-digest", func(b *testing.B) {
		e := newTestEngine(b, Params{})
		node, err := gossip.NewNode("self",
			gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: buffered, MaxAge: 10},
			membership.NewRegistry(names...), rand.New(rand.NewPCG(23, 24)), gossip.WithExtensions(e))
		if err != nil {
			b.Fatal(err)
		}
		digest := &gossip.Message{Kind: gossip.KindGossip, Digest: make([]gossip.EventID, 8)}
		response := &gossip.Message{Kind: gossip.KindRecoveryResponse, From: names[1], Events: make([]gossip.Event, 0, 64)}
		next := uint64(0)
		round := func() {
			e.round++
			for i := range digest.Digest {
				digest.Digest[i] = gossip.EventID{Origin: names[2], Seq: next}
				next++
			}
			digest.From = names[next/8%2]
			e.OnReceive(node, digest)
			e.buildRequests(node)
			response.Events = response.Events[:0]
			for _, out := range e.TakeOutgoing() {
				for _, id := range out.Msg.Request {
					if id.Seq%2 == 0 {
						response.Events = append(response.Events, gossip.Event{ID: id})
					}
				}
			}
			e.OnReceive(node, response)
		}
		for range 2 * giveUpRounds { // ids given up every round
			round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		if st := e.Stats(); st.MissingGaveUp == 0 || st.EventsRecovered == 0 {
			b.Fatalf("no ids given up (%d) or recovered (%d)", st.MissingGaveUp, st.EventsRecovered)
		}
	})
}

// TestStoreMatchesModel drives the store and a slice model, oldest
// first, with the same random adds — of fresh ids and of ids added
// before, stored or since evicted or GC'd — GCs at random horizons, and
// gets, and requires the same answers and that the slots of the events
// stored, and those alone, hold a payload.
func TestStoreMatchesModel(t *testing.T) {
	type entry struct {
		ev    gossip.Event
		round uint64
	}
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5704e))
		capacity := 1 + rng.IntN(64)
		s := mustStore(t, capacity)
		var model []entry
		added := make(map[gossip.EventID]bool)
		var round uint64
		readded := 0
		for op := range 3000 {
			id := gossip.EventID{Origin: "o", Seq: uint64(op)}
			if rng.IntN(3) == 0 {
				id.Seq = uint64(rng.IntN(op + 1))
			}
			i := slices.IndexFunc(model, func(e entry) bool { return e.ev.ID == id })
			switch rng.IntN(5) {
			case 0: // a round passes, and the store is GC'd
				round++
				retain, n := rng.IntN(8), 0
				for n < len(model) && model[n].round+uint64(retain) < round {
					n++
				}
				model = model[n:]
				if got := s.gc(round, retain); got != n {
					t.Fatalf("seed %d op %d: gc evicted %d, model %d", seed, op, got, n)
				}
			case 1:
				if got, ok := s.get(id); ok != (i >= 0) || ok && !reflect.DeepEqual(got, model[i].ev) {
					t.Fatalf("seed %d op %d: get(%v) = %v, %v; model holds it: %v", seed, op, id, got, ok, i >= 0)
				}
			default:
				ev := gossip.Event{ID: id, Payload: []byte{byte(op)}}
				full := len(model) == capacity
				if i < 0 {
					if added[id] {
						readded++
					}
					added[id] = true
					if full {
						model = model[1:]
					}
					model = append(model, entry{ev, round})
				}
				if a, e := s.add(ev, round, false, nil); a != (i < 0) || e != (i < 0 && full) {
					t.Fatalf("seed %d op %d: add(%v) = %v, %v; model %v, %v", seed, op, id, a, e, i < 0, i < 0 && full)
				}
			}
			held := 0
			for _, ev := range s.events {
				if ev.Payload != nil {
					held++
				}
			}
			if s.len() != len(model) || held != len(model) {
				t.Fatalf("seed %d op %d: %d stored, %d slots hold a payload, model %d", seed, op, s.len(), held, len(model))
			}
		}
		if readded == 0 {
			t.Fatalf("seed %d: no id was added again after the store lost it", seed)
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

// orderListModel is the missing set as a map beside an append-only list
// of ids in advertisement order, which may hold ids no longer tracked
// and ids entered more than once; the list is filtered down to tracked
// ids at the end of a round's requests once it holds at least 64
// entries and twice the tracked ids. missingSet keeps the same order in
// fixed memory, and TestMissingSetMatchesOrderListModel holds it to
// this model.
type orderListModel struct {
	missing map[gossip.EventID]*modelEntry
	order   []gossip.EventID

	gaveUp, overflow, recovered uint64
}

type modelEntry struct {
	source              gossip.NodeID
	firstRound, lastReq uint64
}

func (m *orderListModel) diff(seen func(gossip.EventID) bool, from gossip.NodeID, digest []gossip.EventID, round uint64) {
	for _, id := range digest {
		if seen(id) {
			continue
		}
		if e, ok := m.missing[id]; ok {
			e.source = from
			continue
		}
		if len(m.missing) >= maxMissing {
			m.overflow++
			continue
		}
		m.missing[id] = &modelEntry{source: from, firstRound: round}
		m.order = append(m.order, id)
	}
}

// requests returns the round's request messages as "target:ids".
func (m *orderListModel) requests(seen func(gossip.EventID) bool, round uint64, budget int) []string {
	var targets []gossip.NodeID
	ids := map[gossip.NodeID][]gossip.EventID{}
	selected := 0
	for _, id := range m.order {
		if selected >= budget {
			break
		}
		e, ok := m.missing[id]
		if !ok || e.lastReq == round {
			continue
		}
		if seen(id) {
			delete(m.missing, id)
			continue
		}
		if round-e.firstRound >= giveUpRounds {
			delete(m.missing, id)
			m.gaveUp++
			continue
		}
		if e.lastReq != 0 && round-e.lastReq < retryRounds {
			continue
		}
		e.lastReq = round
		if _, ok := ids[e.source]; !ok {
			targets = append(targets, e.source)
		}
		ids[e.source] = append(ids[e.source], id)
		selected++
	}
	if len(m.order) >= 64 && len(m.order) >= 2*len(m.missing) {
		live := m.order[:0]
		for _, id := range m.order {
			if _, ok := m.missing[id]; ok {
				live = append(live, id)
			}
		}
		m.order = live
	}
	var out []string
	for _, to := range targets {
		out = append(out, fmt.Sprintf("%s:%v", to, ids[to]))
	}
	return out
}

// TestMissingSetMatchesOrderListModel drives an engine and the model
// through the same random digests, deliveries, responses and rounds,
// over a pool of ids small enough that ids are given up, advertised
// again and compacted away, and large enough that the set overflows at
// times: every round's requests, the set's size and the give-up,
// overflow and recovery counts must agree.
func TestMissingSetMatchesOrderListModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 55))
		budget := 1 + rng.IntN(24)
		pool := 64 + rng.IntN(1200)
		eng := newTestEngine(t, Params{RequestBudget: budget})
		n := newTestNode(t, "self", membership.NewRegistry("self", "p0"), eng)
		model := &orderListModel{missing: map[gossip.EventID]*modelEntry{}}
		randomID := func() gossip.EventID {
			k := rng.IntN(pool)
			return gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("o%d", k%3)), Seq: uint64(k / 3)}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(10); {
			case op < 5: // a digest
				from := gossip.NodeID(fmt.Sprintf("p%d", rng.IntN(5)))
				digest := make([]gossip.EventID, 1+rng.IntN(48))
				for i := range digest {
					digest[i] = randomID()
				}
				model.diff(n.Seen, from, digest, eng.round)
				eng.OnReceive(n, &gossip.Message{Kind: gossip.KindGossip, From: from, Digest: digest})
			case op < 6: // an event delivered by push gossip
				ev := gossip.Event{ID: randomID()}
				n.Receive(&gossip.Message{From: "p0", Events: []gossip.Event{ev}})
			case op < 7: // a response
				resp := &gossip.Message{Kind: gossip.KindRecoveryResponse, From: "p1"}
				for range 1 + rng.IntN(8) {
					id := randomID()
					if _, ok := model.missing[id]; ok {
						model.recovered++
						delete(model.missing, id)
					}
					resp.Events = append(resp.Events, gossip.Event{ID: id})
				}
				eng.OnReceive(n, resp)
			default: // a round
				round := eng.round + 1
				want := model.requests(n.Seen, round, budget)
				eng.OnTick(n, &gossip.Message{})
				var got []string
				for _, out := range eng.TakeOutgoing() {
					got = append(got, fmt.Sprintf("%s:%v", out.To, out.Msg.Request))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, step %d, round %d: requests\n got %v\nwant %v", seed, step, round, got, want)
				}
			}
			st := eng.Stats()
			if eng.MissingLen() != len(model.missing) || st.MissingGaveUp != model.gaveUp ||
				st.MissingOverflow != model.overflow || st.EventsRecovered != model.recovered {
				t.Fatalf("seed %d, step %d: engine tracks %d (gave up %d, overflow %d, recovered %d), model %d (%d, %d, %d)",
					seed, step, eng.MissingLen(), st.MissingGaveUp, st.MissingOverflow, st.EventsRecovered,
					len(model.missing), model.gaveUp, model.overflow, model.recovered)
			}
		}
		st := eng.Stats()
		t.Logf("seed %d: budget %d, pool %d: %d ids requested, %d given up, %d overflowed, %d recovered",
			seed, budget, pool, st.IDsRequested, st.MissingGaveUp, st.MissingOverflow, st.EventsRecovered)
	}
}
