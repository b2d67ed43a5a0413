package recovery

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// ev returns event seq of origin.
func ev(origin gossip.NodeID, seq uint64) gossip.Event {
	return gossip.Event{ID: gossip.EventID{Origin: origin, Seq: seq}}
}

// push hands n a gossip message from "p" carrying events of origin at
// seqs: how a test opens or advances n's window of origin.
func push(n *gossip.Node, origin gossip.NodeID, seqs ...uint64) {
	msg := &gossip.Message{From: "p"}
	for _, s := range seqs {
		msg.Events = append(msg.Events, ev(origin, s))
	}
	n.Receive(msg)
}

// digest returns a gossip message from from whose digest holds marks.
func digest(from gossip.NodeID, marks ...gossip.EventID) *gossip.Message {
	return &gossip.Message{Kind: gossip.KindGossip, From: from, Digest: marks}
}

// requests returns the request messages of outs as "target:ids".
func requests(outs []gossip.Outgoing) []string {
	var got []string
	for _, out := range outs {
		if out.Msg.Kind == gossip.KindRecoveryRequest {
			got = append(got, fmt.Sprintf("%s:%v", out.To, out.Msg.Request))
		}
	}
	return got
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero params should validate via defaults, got %v", err)
	}
	if err := (Params{RequestBudget: -2}).Validate(); err == nil {
		t.Error("negative budget should fail validation")
	}
	if err := (Params{StoreCapacity: -1}).Validate(); err == nil {
		t.Error("negative store capacity should fail validation")
	}
	p := Params{}.withDefaults()
	if p.RequestBudget != DefaultRequestBudget || p.StoreCapacity != DefaultStoreCapacity {
		t.Errorf("defaults not applied: %+v", p)
	}
}

// TestDigestPiggyback: a ticking node with the engine advertises the
// watermark of each origin it accepted events of, its own included,
// the most recently active first.
func TestDigestPiggyback(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	n := newTestNode(t, "a", reg, eng)

	push(n, "x", 0, 4, 2)
	n.Broadcast([]byte("x"))
	own := n.Broadcast([]byte("y"))
	outs := n.Tick()
	if len(outs) == 0 {
		t.Fatal("expected fanout targets")
	}
	want := []gossip.EventID{own.ID, {Origin: "x", Seq: 4}}
	if got := outs[0].Msg.Digest; !slices.Equal(got, want) {
		t.Errorf("digest %v, want %v", got, want)
	}
	if eng.Stats().DigestsSent != 1 {
		t.Errorf("DigestsSent = %d, want 1", eng.Stats().DigestsSent)
	}
}

// TestPullRepair drives the full request/response exchange by hand:
// node b, which has heard of origin a, learns of a's next event only via
// a's digest, pulls it, and a serves it from the store.
func TestPullRepair(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	engA := newTestEngine(t, Params{})
	engB := newTestEngine(t, Params{})
	a := newTestNode(t, "a", reg, engA)
	b := newTestNode(t, "b", reg, engB)

	b.Receive(&gossip.Message{From: "a", Events: []gossip.Event{a.Broadcast([]byte("heard"))}})
	ev := a.Broadcast([]byte("lost-event"))
	outs := a.Tick()
	if len(outs) == 0 {
		t.Fatal("expected outgoing gossip")
	}
	// Deliver only the digest to b — the event list is "lost".
	stripped := outs[0].Msg.Clone()
	stripped.Events = nil
	b.Receive(stripped)
	if got := b.AppendUnseen(nil, "a", ev.ID.Seq+1, 8); !slices.Equal(got, []gossip.EventID{ev.ID}) {
		t.Fatalf("b lacks %v of a, want [%s]", got, ev.ID)
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

	// b receives the response: the event is delivered, stored and no
	// longer pulled.
	b.Receive(resp.Msg)
	if got := b.AppendUnseen(nil, "a", ev.ID.Seq+1, 8); len(got) != 0 {
		t.Errorf("b still lacks %v after the response", got)
	}
	if _, ok := engB.store.get(ev.ID); !ok {
		t.Error("b did not store the recovered event")
	}
	b.Receive(stripped)
	b.Tick()
	if reqs := requests(engB.TakeOutgoing()); len(reqs) != 0 {
		t.Errorf("b pulls %v after the response", reqs)
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
	eng := newTestEngine(t, Params{RequestBudget: 3})
	b := newTestNode(t, "b", reg, eng)

	push(b, "a", 1)
	b.Receive(digest("a", gossip.EventID{Origin: "a", Seq: 20}))
	b.Tick()
	want := []string{"a:[a/0 a/2 a/3]"}
	if got := requests(eng.TakeOutgoing()); !slices.Equal(got, want) {
		t.Errorf("requests %v, want %v", got, want)
	}
	if eng.Stats().IDsRequested != 3 {
		t.Errorf("IDsRequested = %d, want 3", eng.Stats().IDsRequested)
	}
}

// TestRetryAndGiveUp: an unanswered id is asked for again every round a
// digest advertises a watermark above it, and given up once its
// window's floor passes it: here when an id lands above the ring H =
// 2·(MaxAge+1) rounds after the ring's upper word was first seen.
func TestRetryAndGiveUp(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	b := newTestNode(t, "b", reg, eng) // MaxAge 5

	const h = 2 * (5 + 1)
	push(b, "a", 0)
	for round := 1; round <= h+4; round++ {
		switch round {
		case 2:
			push(b, "a", 64) // word 1, first seen at round 1
		case h + 2:
			push(b, "a", 128) // past the ring: the floor moves up to word 1
		}
		b.Receive(digest("a", gossip.EventID{Origin: "a", Seq: 3}))
		b.Tick()
		want := []string{"a:[a/1 a/2 a/3]"}
		if round >= h+2 {
			want = nil
		}
		if got := requests(eng.TakeOutgoing()); !slices.Equal(got, want) {
			t.Fatalf("round %d: requests %v, want %v", round, got, want)
		}
	}
}

// TestMissingSettledByPush: ids that arrive through normal push gossip
// before the pull fires are not requested.
func TestMissingSettledByPush(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	b := newTestNode(t, "b", reg, eng)

	push(b, "a", 0)
	b.Receive(digest("a", gossip.EventID{Origin: "a", Seq: 7}))
	// The events arrive via push before b's next tick.
	push(b, "a", 1, 2, 3, 4, 5, 6, 7)
	b.Tick()
	if outs := eng.TakeOutgoing(); len(outs) != 0 {
		t.Errorf("expected no requests, got %d messages", len(outs))
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
				eng.OnDeliver(a, gossip.Event{ID: stored(i), Payload: []byte("x")}, nil)
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
		s.add(gossip.Event{ID: gossip.EventID{Origin: "a", Seq: uint64(i)}}, uint64(i))
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
		s.add(gossip.Event{ID: gossip.EventID{Origin: "a", Seq: seq}}, seq)
		s.gc(seq, int(seq%8)) // at times the GC evicts, at times the capacity
		seq++
	}); allocs != 0 {
		t.Fatalf("add and gc allocate %v times, want 0", allocs)
	}
}

// TestStoreAddBorrowedAllocFree: the store retains received payloads
// beside the node's buffer, so for an event out of a Borrowed message it
// never keeps the datagram's bytes: it takes the copy the node made when
// it first accepted the event, which the buffer shares, and the
// duplicates that are most of what gossip receives neither copy nor
// touch the store. A broadcast's payload is stored as given.
func TestStoreAddBorrowedAllocFree(t *testing.T) {
	eng := newTestEngine(t, Params{})
	n := newTestNode(t, "rx", membership.NewRegistry("rx", "a"), eng)
	wire := []byte("payload in the transport's receive buffer")
	want := string(wire)
	id := gossip.EventID{Origin: "a", Seq: 1}
	msg := &gossip.Message{From: "a", Borrowed: true, Events: []gossip.Event{{ID: id, Payload: wire}}}
	n.Receive(msg)
	for i := range wire {
		wire[i] = 0xDD // the next datagram lands in the buffer
	}
	held, ok := n.Buffered(id)
	got, stored := eng.store.get(id)
	if !ok || !stored {
		t.Fatalf("event buffered %v, stored %v; want both", ok, stored)
	}
	if &got.Payload[0] != &held.Payload[0] || string(got.Payload) != want {
		t.Fatalf("store holds %q apart from the node's copy: want the node's copy %q", got.Payload, held.Payload)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.Receive(msg) }); allocs != 0 {
		t.Fatalf("a duplicate of a stored event allocates %v times, want 0", allocs)
	}
	if eng.store.len() != 1 {
		t.Fatalf("%d events stored, want 1", eng.store.len())
	}
	payload := []byte("own")
	own := n.Broadcast(payload)
	if got, _ := eng.store.get(own.ID); &got.Payload[0] != &payload[0] {
		t.Fatal("store copied a broadcast's payload")
	}
}

// TestMaxMissingBound: a digest cannot make the member chase more than
// it can ask for. Each origin the member has a window of takes at most
// one entry in the round's pull list, whatever the digest repeats, and
// the list at most RequestBudget; the latest advertiser of a gap is the
// one asked.
func TestMaxMissingBound(t *testing.T) {
	const budget = 4
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{RequestBudget: budget})
	b := newTestNode(t, "b", reg, eng)

	var marks []gossip.EventID
	for o := range 10 {
		origin := gossip.NodeID(fmt.Sprintf("o%d", o))
		push(b, origin, 0)
		for range 3 {
			marks = append(marks, gossip.EventID{Origin: origin, Seq: 5})
		}
	}
	b.Receive(digest("a", marks...))
	b.Receive(digest("c", marks...))
	if len(eng.pulls) != budget {
		t.Fatalf("%d pulls, want the budget %d", len(eng.pulls), budget)
	}
	for i, p := range eng.pulls {
		if want := (pull{origin: gossip.NodeID(fmt.Sprintf("o%d", i)), from: "c", below: 6}); p != want {
			t.Fatalf("pull %d = %+v, want %+v", i, p, want)
		}
	}
	b.Tick()
	if got, want := requests(eng.TakeOutgoing()), []string{"c:[o0/1 o0/2 o0/3 o0/4]"}; !slices.Equal(got, want) {
		t.Fatalf("requests %v, want %v", got, want)
	}
}

// TestDeterministicRequests: identical advertisement sequences produce
// identical request batches (map iteration must not leak in).
func TestDeterministicRequests(t *testing.T) {
	run := func() string {
		reg := membership.NewRegistry("a", "b", "c", "x")
		eng := newTestEngine(t, Params{RequestBudget: 8})
		x := newTestNode(t, "x", reg, eng)
		var trace string
		for round := 0; round < 4; round++ {
			for _, from := range []gossip.NodeID{"a", "b", "c"} {
				push(x, from, uint64(round*6))
				marks := make([]gossip.EventID, 3)
				for i := range marks {
					marks[i] = gossip.EventID{Origin: gossip.NodeID([]string{"a", "b", "c"}[i]), Seq: uint64(round*6 + 5)}
				}
				x.Receive(digest(from, marks...))
			}
			x.Tick()
			trace += strings.Join(requests(eng.TakeOutgoing()), ";") + "|"
		}
		return trace
	}
	if a, b := run(), run(); a != b {
		t.Errorf("request building not deterministic:\n  %s\n  %s", a, b)
	}
}

// TestDiffDigest: a received digest's watermarks above ids the node
// lacks, and those alone, enter the pull list and are pulled from the
// digest's sender; the node's own origin and a watermark it has
// everything under are not. Of an origin it has no window of, it pulls
// the advertised seq's word up to it.
func TestDiffDigest(t *testing.T) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(t, Params{})
	n := newTestNode(t, "a", reg, eng)
	have := n.Broadcast(nil)
	push(n, "b", 0)
	push(n, "c", 0, 1)
	eng.OnReceive(n, digest("b", gossip.EventID{Origin: have.ID.Origin, Seq: 9}, gossip.EventID{Origin: "b", Seq: 1},
		gossip.EventID{Origin: "c", Seq: 1}, gossip.EventID{Origin: "d", Seq: 66}))
	if len(eng.pulls) != 2 {
		t.Fatalf("%d pulls %+v, want 2", len(eng.pulls), eng.pulls)
	}
	n.Tick()
	want := []string{"b:[b/1 d/64 d/65 d/66]"}
	if got := requests(eng.TakeOutgoing()); !slices.Equal(got, want) {
		t.Fatalf("requests %v, want %v", got, want)
	}
}

// BenchmarkRecoveryDigestDiff measures the receiver-side hot path of
// the anti-entropy subsystem: a gossip message carrying a digest of 64
// watermarks, diffed against the node's replay windows. The node lacks
// an id under half of them — the steady-state shape under loss — and
// those origins hold the round's pull list from the first iteration
// on, as they do while their pulls are answered.
func BenchmarkRecoveryDigestDiff(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	eng := newTestEngine(b, Params{})
	node, err := gossip.NewNode("a",
		gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		reg, rand.New(rand.NewPCG(21, 22)), gossip.WithExtensions(eng))
	if err != nil {
		b.Fatal(err)
	}
	msg := digest("b", make([]gossip.EventID, 64)...)
	for i := range msg.Digest {
		origin := gossip.NodeID(fmt.Sprintf("n%03d", i))
		msg.Digest[i] = gossip.EventID{Origin: origin, Seq: 40}
		push(node, origin, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
			21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39)
		if i%2 == 0 {
			push(node, origin, 40)
		}
	}
	b.ReportMetric(float64(len(msg.Digest)), "watermarks/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.OnReceive(node, msg)
	}
	b.StopTimer()
	if len(eng.pulls) != len(msg.Digest)/2 {
		b.Fatalf("%d origins pulled, want %d", len(eng.pulls), len(msg.Digest)/2)
	}
}

// BenchmarkRecoveryRound measures the engine's bookkeeping of one round
// in udp_full's shape, at the default store of 1,024 events. Ungated:
// it compares the store's and the pulls' cost across changes of their
// layout.
//
//   - observed: 12 new events a round from 16 origins taken into the
//     store, the store's GC, and the digest of the 16 watermarks listed
//     for the round message.
//   - unseen-digest: an origin whose 8 new ids a round the member hears
//     one of by push and the rest of from a digest, from two
//     advertisers in turn; the round's requests; and a response
//     bringing the even-numbered ids requested, so the odd ones are
//     requested until the window's floor passes them.
func BenchmarkRecoveryRound(b *testing.B) {
	const members, births = 16, 12
	names := make([]gossip.NodeID, members)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	newNode := func(b *testing.B, e *Engine) *gossip.Node {
		node, err := gossip.NewNode("self",
			gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
			membership.NewRegistry(names...), rand.New(rand.NewPCG(23, 24)), gossip.WithExtensions(e))
		if err != nil {
			b.Fatal(err)
		}
		return node
	}
	b.Run("observed", func(b *testing.B) {
		e := newTestEngine(b, Params{})
		node := newNode(b, e)
		for _, name := range names {
			push(node, name, 0)
		}
		payload := make([]byte, 32)
		digest := make([]gossip.EventID, 0, DigestLen)
		// Event k of the group is seq k/members of member k%members.
		newest := uint64(0)
		round := func() {
			e.round++
			e.stats.StoreEvicted += uint64(e.store.gc(e.round, retainRounds))
			for range births {
				e.OnDeliver(node, gossip.Event{ID: gossip.EventID{Origin: names[newest%members], Seq: newest / members}, Payload: payload}, nil)
				newest++
			}
			digest = node.AppendWatermarks(digest[:0], DigestLen)
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
		node := newNode(b, e)
		marks := digest("", gossip.EventID{Origin: names[2]})
		response := &gossip.Message{Kind: gossip.KindRecoveryResponse, From: names[1], Events: make([]gossip.Event, 0, 64)}
		pushed := &gossip.Message{From: names[3], Events: []gossip.Event{ev(names[2], 0)}}
		next := uint64(0)
		round := func() {
			pushed.Events[0].ID.Seq = next
			node.Receive(pushed)
			next += 8
			marks.Digest[0].Seq = next - 1
			marks.From = names[next/8%2]
			node.Receive(marks)
			response.Events = response.Events[:0]
			node.Tick()
			for _, out := range e.TakeOutgoing() {
				for _, id := range out.Msg.Request {
					if id.Seq%2 == 0 {
						response.Events = append(response.Events, gossip.Event{ID: id})
					}
				}
			}
			node.Receive(response)
		}
		for range 30 { // ids given up every round
			round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		if st := e.Stats(); st.IDsRequested == 0 || st.EventsRecovered == 0 {
			b.Fatalf("no ids requested (%d) or recovered (%d)", st.IDsRequested, st.EventsRecovered)
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
				if a, e := s.add(ev, round); a != (i < 0) || e != (i < 0 && full) {
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

// TestEngineMemoryIsTheStore: recovery keeps no id set of its own, so
// what NewEngine allocates at StoreCapacity 1,024 is the store — its
// events, the rounds they were accepted at and its IDCache, at most 60
// bytes per id — and scratch sized by the request budget: the pull
// list, the requests' ids, the response's events and the outbox's
// messages, within a stated slack of 16 KiB. Beside the store, the
// missing ring and the digest cache this replaced held about 100 KB.
func TestEngineMemoryIsTheStore(t *testing.T) {
	const capacity, maxIDCacheBytesPerID, slack = 1024, 60, 16 << 10
	store := capacity * (int(unsafe.Sizeof(gossip.Event{})) + 8 + maxIDCacheBytesPerID)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := NewEngine(Params{Enabled: true, StoreCapacity: capacity})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := int(after.TotalAlloc - before.TotalAlloc)
	if got > store+slack {
		t.Fatalf("NewEngine at StoreCapacity %d allocates %d B, want at most the store's %d B and %d B of slack", capacity, got, store, slack)
	}
	t.Logf("NewEngine allocates %d B; the store's bound is %d B", got, store)
	runtime.KeepAlive(eng)
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

// orderListModel is the round's pull list as a map of origins beside a
// list of them in the order they were first advertised with a gap,
// built afresh each round, and the round's requests as the model reads
// them off it. What a window lacks is the node's AppendUnseen, which
// FuzzReplayWindow holds to a model of its own.
type orderListModel struct {
	self   gossip.NodeID
	budget int
	order  []gossip.NodeID
	pulls  map[gossip.NodeID]pull
}

func (m *orderListModel) diff(n *gossip.Node, from gossip.NodeID, marks []gossip.EventID) {
	for _, w := range marks {
		if w.Origin == m.self || len(n.AppendUnseen(nil, w.Origin, w.Seq+1, 1)) == 0 {
			continue
		}
		if _, ok := m.pulls[w.Origin]; !ok {
			if len(m.order) == m.budget {
				continue
			}
			m.order = append(m.order, w.Origin)
		}
		m.pulls[w.Origin] = pull{origin: w.Origin, from: from, below: w.Seq + 1}
	}
}

// requests returns the round's request messages as "target:ids" and
// empties the list.
func (m *orderListModel) requests(n *gossip.Node) []string {
	var targets []gossip.NodeID
	ids := map[gossip.NodeID][]gossip.EventID{}
	total := 0
	for _, origin := range m.order {
		p := m.pulls[origin]
		if _, ok := ids[p.from]; !ok {
			targets = append(targets, p.from)
			ids[p.from] = nil
		}
	}
	var out []string
	for _, to := range targets {
		for _, origin := range m.order {
			if p := m.pulls[origin]; p.from == to {
				got := n.AppendUnseen(nil, origin, p.below, m.budget-total)
				ids[to] = append(ids[to], got...)
				total += len(got)
			}
		}
		if len(ids[to]) > 0 {
			out = append(out, fmt.Sprintf("%s:%v", to, ids[to]))
		}
	}
	m.order, m.pulls = nil, map[gossip.NodeID]pull{}
	return out
}

// TestPullsMatchOrderListModel drives an engine and the model through
// the same random digests, pushes, responses and rounds, over origins
// the node has heard of, one it has not and its own, with seqs far
// enough apart that windows reach their bound and move their floors:
// every round's requests and the recovery count must agree.
func TestPullsMatchOrderListModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 55))
		budget := 1 + rng.IntN(24)
		eng := newTestEngine(t, Params{RequestBudget: budget})
		n := newTestNode(t, "self", membership.NewRegistry("self", "p0"), eng)
		model := &orderListModel{self: "self", budget: budget, pulls: map[gossip.NodeID]pull{}}
		origins := []gossip.NodeID{"o0", "o1", "o2", "o3", "o4", "o5", "self", "never"}
		top := uint64(64 + rng.IntN(1200))
		randomID := func(heard bool) gossip.EventID {
			o := origins[rng.IntN(len(origins))]
			if heard {
				o = origins[rng.IntN(6)]
			}
			return gossip.EventID{Origin: o, Seq: uint64(rng.IntN(int(top)))}
		}
		recovered := uint64(0)
		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(10); {
			case op < 4: // a digest
				from := gossip.NodeID(fmt.Sprintf("p%d", rng.IntN(5)))
				marks := make([]gossip.EventID, 1+rng.IntN(12))
				for i := range marks {
					marks[i] = randomID(false)
				}
				model.diff(n, from, marks)
				n.Receive(digest(from, marks...))
			case op < 7: // events delivered by push gossip
				push(n, randomID(true).Origin, uint64(rng.IntN(int(top))), uint64(rng.IntN(int(top))))
			case op < 8: // a response
				resp := &gossip.Message{Kind: gossip.KindRecoveryResponse, From: "p1"}
				for range 1 + rng.IntN(8) {
					resp.Events = append(resp.Events, gossip.Event{ID: randomID(true)})
				}
				delivered := n.Stats().Delivered
				n.Receive(resp)
				recovered += n.Stats().Delivered - delivered
			default: // a round
				want := model.requests(n)
				n.Tick()
				if got := requests(eng.TakeOutgoing()); !slices.Equal(got, want) {
					t.Fatalf("seed %d, step %d: requests\n got %v\nwant %v", seed, step, got, want)
				}
			}
			if st := eng.Stats(); st.EventsRecovered != recovered {
				t.Fatalf("seed %d, step %d: %d recovered, model %d", seed, step, st.EventsRecovered, recovered)
			}
		}
		st := eng.Stats()
		t.Logf("seed %d: budget %d, seqs under %d: %d ids requested, %d recovered",
			seed, budget, top, st.IDsRequested, st.EventsRecovered)
	}
}
