package gossip

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// staticPeers samples uniformly from a fixed member list.
type staticPeers []NodeID

func (s staticPeers) AppendPeers(dst []NodeID, self NodeID, k int, rng *rand.Rand) []NodeID {
	candidates := make([]NodeID, 0, len(s))
	for _, p := range s {
		if p != self {
			candidates = append(candidates, p)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return append(dst, candidates...)
}

func testParams() Params {
	return Params{Fanout: 2, Period: time.Second, MaxEvents: 8, MaxAge: 5}
}

func newTestNode(t *testing.T, id NodeID, peers PeerSampler, opts ...Option) *Node {
	t.Helper()
	n, err := NewNode(id, testParams(), peers, rand.New(rand.NewPCG(42, uint64(len(id)))), opts...)
	if err != nil {
		t.Fatalf("NewNode(%s): %v", id, err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	peers := staticPeers{"a", "b"}
	rng := rand.New(rand.NewPCG(1, 1))
	cases := []struct {
		name string
		fn   func() (*Node, error)
	}{
		{"empty id", func() (*Node, error) { return NewNode("", testParams(), peers, rng) }},
		{"nil peers", func() (*Node, error) { return NewNode("a", testParams(), nil, rng) }},
		{"nil rng", func() (*Node, error) { return NewNode("a", testParams(), peers, nil) }},
		{"bad params", func() (*Node, error) {
			p := testParams()
			p.Fanout = 0
			return NewNode("a", p, peers, rng)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.fn(); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestBroadcastDeliversLocallyAndBuffers(t *testing.T) {
	var delivered []Event
	n := newTestNode(t, "a", staticPeers{"a", "b"}, WithDeliver(func(e Event) {
		delivered = append(delivered, e)
	}))
	ev := n.Broadcast([]byte("hello"))
	if ev.ID.Origin != "a" || ev.ID.Seq != 0 || ev.Age != 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if len(delivered) != 1 || string(delivered[0].Payload) != "hello" {
		t.Fatalf("local delivery missing: %v", delivered)
	}
	if n.BufferLen() != 1 {
		t.Fatalf("buffer len %d, want 1", n.BufferLen())
	}
	ev2 := n.Broadcast(nil)
	if ev2.ID.Seq != 1 {
		t.Fatalf("seq %d, want 1", ev2.ID.Seq)
	}
}

func TestTickAdvancesAgesAndFansOut(t *testing.T) {
	n := newTestNode(t, "a", staticPeers{"a", "b", "c", "d"})
	n.Broadcast([]byte("x"))
	outs := n.Tick()
	if len(outs) != 2 {
		t.Fatalf("fanout %d, want 2", len(outs))
	}
	seen := map[NodeID]bool{}
	for _, o := range outs {
		if o.To == "a" {
			t.Fatal("node gossiped to itself")
		}
		if seen[o.To] {
			t.Fatalf("duplicate target %s", o.To)
		}
		seen[o.To] = true
		if len(o.Msg.Events) != 1 || o.Msg.Events[0].Age != 1 {
			t.Fatalf("message events %+v, want one event with age 1", o.Msg.Events)
		}
		if o.Msg.From != "a" {
			t.Fatalf("message from %s", o.Msg.From)
		}
	}
	if n.Round() != 1 {
		t.Fatalf("round %d, want 1", n.Round())
	}
}

func TestTickExpiresOldEvents(t *testing.T) {
	n := newTestNode(t, "a", staticPeers{"a", "b"})
	n.Broadcast(nil)
	for i := 0; i < 5; i++ {
		n.Tick()
	}
	if n.BufferLen() != 1 {
		t.Fatalf("event should still be buffered at age 5 (k=5), len=%d", n.BufferLen())
	}
	n.Tick() // age 6 > k
	if n.BufferLen() != 0 {
		t.Fatalf("event not expired, len=%d", n.BufferLen())
	}
	if got := n.Stats().DroppedExpired; got != 1 {
		t.Fatalf("DroppedExpired = %d, want 1", got)
	}
}

func TestReceiveDeliversOnceAndSuppressesDuplicates(t *testing.T) {
	var got []Event
	n := newTestNode(t, "b", staticPeers{"a", "b"}, WithDeliver(func(e Event) {
		got = append(got, e)
	}))
	msg := &Message{From: "a", Events: []Event{mkEvent("a", 0, 1), mkEvent("a", 1, 2)}}
	n.Receive(msg)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	n.Receive(msg)
	if len(got) != 2 {
		t.Fatalf("duplicates delivered: %d", len(got))
	}
	st := n.Stats()
	if st.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2", st.Duplicates)
	}
	if st.MessagesReceived != 2 || st.EventsReceived != 4 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBufferedEventIsNeverRedelivered: eventIds forgets the least
// recently active origin when it holds MaxEventIDs windows, the buffer
// evicts by age, so a young event can outlive its origin's window when
// older events of other origins arrive after it. A later copy of it is
// still a duplicate. Both routes there are covered: an eventIds set no
// larger than the buffer, and a buffer grown past it.
func TestBufferedEventIsNeverRedelivered(t *testing.T) {
	for _, tc := range []struct {
		name          string
		maxIDs, grow  int
		olderArrivals int
	}{
		{name: "MaxEventIDs == MaxEvents", maxIDs: 4, olderArrivals: 4},
		{name: "SetBufferCapacity past MaxEventIDs", maxIDs: 8, grow: 16, olderArrivals: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("the member panicked: %v", r)
				}
			}()
			p := testParams()
			p.MaxEvents, p.MaxEventIDs = 4, tc.maxIDs
			deliveries := map[EventID]int{}
			n, err := NewNode("a", p, staticPeers{"a", "b"}, rand.New(rand.NewPCG(1, 1)),
				WithDeliver(func(e Event) { deliveries[e.ID]++ }))
			if err != nil {
				t.Fatal(err)
			}
			if tc.grow > 0 {
				if err := n.SetBufferCapacity(tc.grow); err != nil {
					t.Fatal(err)
				}
			}
			own := n.Broadcast(nil)
			older := make([]Event, tc.olderArrivals)
			for i := range older {
				older[i] = mkEvent(fmt.Sprintf("b%d", i), 0, 3)
			}
			n.Receive(&Message{From: "b", Events: older})
			if n.seen.find(own.ID.Origin, originHash(n.buf.seed, own.ID.Origin)) >= 0 || !n.buf.Contains(own.ID) {
				t.Fatal("set-up: want the own event buffered and gone from eventIds")
			}
			n.Receive(&Message{From: "b", Events: []Event{{ID: own.ID, Age: 2}}})
			if deliveries[own.ID] != 1 {
				t.Fatalf("the own event was delivered %d times, want once", deliveries[own.ID])
			}
			if age, _ := n.buf.Age(own.ID); age != 2 {
				t.Fatalf("the duplicate left the buffered age at %d, want it raised to 2", age)
			}
		})
	}
}

func TestReceiveRaisesAgeOfDuplicates(t *testing.T) {
	n := newTestNode(t, "b", staticPeers{"a", "b"})
	n.Receive(&Message{From: "a", Events: []Event{mkEvent("a", 0, 1)}})
	n.Receive(&Message{From: "c", Events: []Event{mkEvent("a", 0, 4)}})
	if age, ok := n.buf.Age(EventID{Origin: "a", Seq: 0}); !ok || age != 4 {
		t.Fatalf("age = %d (present=%v), want 4", age, ok)
	}
}

func TestReceiveCapacityEvictionUpdatesStats(t *testing.T) {
	p := testParams()
	p.MaxAge = 10 // above every age sent, so none is clamped
	n, err := NewNode("b", p, staticPeers{"a", "b"}, rand.New(rand.NewPCG(42, 1)))
	if err != nil {
		t.Fatal(err)
	}
	// Capacity is 8: send 10 events with distinct ages.
	events := make([]Event, 10)
	for i := range events {
		events[i] = mkEvent("a", uint64(i), i)
	}
	n.Receive(&Message{From: "a", Events: events})
	if n.BufferLen() != 8 {
		t.Fatalf("buffer len %d, want 8", n.BufferLen())
	}
	st := n.Stats()
	if st.DroppedCapacity != 2 {
		t.Fatalf("DroppedCapacity = %d, want 2", st.DroppedCapacity)
	}
	// Victims are the oldest: ages 9 and 8 (17 total). Note the events
	// arrive youngest-first so the last two arrivals displace them.
	if st.DroppedAgeSum != 17 {
		t.Fatalf("DroppedAgeSum = %d, want 17", st.DroppedAgeSum)
	}
	if got := st.AvgDroppedAge(); got != 8.5 {
		t.Fatalf("AvgDroppedAge = %v, want 8.5", got)
	}
}

func TestSetBufferCapacityEvictsAndCounts(t *testing.T) {
	n := newTestNode(t, "a", staticPeers{"a", "b"})
	for i := 0; i < 8; i++ {
		n.Broadcast(nil)
	}
	if err := n.SetBufferCapacity(3); err != nil {
		t.Fatal(err)
	}
	if n.BufferLen() != 3 || n.BufferCapacity() != 3 {
		t.Fatalf("len/cap = %d/%d, want 3/3", n.BufferLen(), n.BufferCapacity())
	}
	if got := n.Stats().DroppedResize; got != 5 {
		t.Fatalf("DroppedResize = %d, want 5", got)
	}
	if err := n.SetBufferCapacity(0); err == nil {
		t.Fatal("SetBufferCapacity(0): want error")
	}
}

// recordingExt records hook invocations.
type recordingExt struct {
	ticks    int
	receives int
	evicted  map[EvictReason]int
	lastMsg  *Message
}

func (r *recordingExt) OnTick(n *Node, out *Message) {
	r.ticks++
	out.SamplePeriod = 7
	out.MinBuff = []BuffCap{{Node: "a", Cap: 42}}
}

func (r *recordingExt) OnReceive(n *Node, in *Message) {
	r.receives++
	r.lastMsg = in
}

func (r *recordingExt) OnEvicted(n *Node, ev Event, reason EvictReason) {
	if r.evicted == nil {
		r.evicted = map[EvictReason]int{}
	}
	r.evicted[reason]++
}

func TestExtensionHooks(t *testing.T) {
	ext := &recordingExt{}
	n := newTestNode(t, "a", staticPeers{"a", "b"}, WithExtensions(ext))

	n.Broadcast(nil)
	outs := n.Tick()
	if ext.ticks != 1 {
		t.Fatalf("OnTick calls = %d, want 1", ext.ticks)
	}
	if len(outs) == 0 || outs[0].Msg.SamplePeriod != 7 || len(outs[0].Msg.MinBuff) != 1 || outs[0].Msg.MinBuff[0].Cap != 42 {
		t.Fatalf("extension header not applied: %+v", outs[0].Msg)
	}

	// Receive triggers OnReceive after events are stored.
	in := &Message{From: "b", Events: []Event{mkEvent("b", 0, 1)}}
	n.Receive(in)
	if ext.receives != 1 || ext.lastMsg != in {
		t.Fatalf("OnReceive not called with the incoming message")
	}

	// Capacity eviction reaches OnEvicted.
	events := make([]Event, 12)
	for i := range events {
		events[i] = mkEvent("c", uint64(i), i)
	}
	n.Receive(&Message{From: "c", Events: events})
	if ext.evicted[EvictCapacity] == 0 {
		t.Fatal("OnEvicted(EvictCapacity) never called")
	}

	// Resize eviction reaches OnEvicted.
	if err := n.SetBufferCapacity(1); err != nil {
		t.Fatal(err)
	}
	if ext.evicted[EvictResize] == 0 {
		t.Fatal("OnEvicted(EvictResize) never called")
	}
}

// eviction is one event an extension was told left the buffer.
type eviction struct {
	id     EventID
	age    int
	reason EvictReason
}

// evictionRecorder is an extension that records every eviction it is
// told of, in order.
type evictionRecorder struct{ got []eviction }

func (r *evictionRecorder) OnTick(*Node, *Message)    {}
func (r *evictionRecorder) OnReceive(*Node, *Message) {}
func (r *evictionRecorder) OnEvicted(_ *Node, ev Event, reason EvictReason) {
	r.got = append(r.got, eviction{ev.ID, ev.Age, reason})
}

// TestEvictionSequence runs one script through a node of 6 events and
// max age 10 and holds the exact (event, age, reason) sequence its
// extension is told of: a full buffer's newcomer that is the oldest is
// the capacity victim itself, at its clamped age; a newcomer that is
// not pushes out the longest resident of the oldest age; a round
// expires the events past max age, longest resident first; and a
// shrink by 3 evicts oldest first, ties by residency.
func TestEvictionSequence(t *testing.T) {
	rec := &evictionRecorder{}
	n, err := NewNode("a", Params{Fanout: 1, Period: time.Second, MaxEvents: 6, MaxAge: 10},
		staticPeers{"a", "b"}, rand.New(rand.NewPCG(1, 2)), WithExtensions(rec))
	if err != nil {
		t.Fatal(err)
	}
	receive := func(seq uint64, age int) {
		n.Receive(&Message{From: "p", Events: []Event{mkEvent("p", seq, age)}})
	}
	for seq, age := range []int{10, 10, 10, 10, 2, 1} {
		receive(uint64(seq), age)
	}
	if len(rec.got) != 0 || n.BufferLen() != 6 {
		t.Fatalf("filling the buffer evicted %v, holds %d", rec.got, n.BufferLen())
	}
	receive(6, 50) // the oldest of all: delivered, never stored
	receive(7, 0)  // pushes out seq 0, the first of the age-10 events
	n.Tick()       // ages 10 → 11: seqs 1, 2 and 3 expire
	for seq, age := range []int{5, 5, 0} {
		receive(uint64(8+seq), age)
	}
	if err := n.SetBufferCapacity(3); err != nil {
		t.Fatal(err)
	}
	id := func(seq uint64) EventID { return EventID{Origin: "p", Seq: seq} }
	want := []eviction{
		{id(6), 11, EvictCapacity},
		{id(0), 10, EvictCapacity},
		{id(1), 11, EvictExpired},
		{id(2), 11, EvictExpired},
		{id(3), 11, EvictExpired},
		{id(8), 5, EvictResize},
		{id(9), 5, EvictResize},
		{id(4), 3, EvictResize},
	}
	if !slices.Equal(rec.got, want) {
		t.Fatalf("evictions\n got %v\nwant %v", rec.got, want)
	}
	st := n.Stats()
	if st.DroppedCapacity != 2 || st.DroppedAgeSum != 21 || st.DroppedExpired != 3 || st.DroppedResize != 3 {
		t.Fatalf("stats %+v: want 2 capacity drops of ages summing to 21, 3 expired, 3 resized", st)
	}
	if n.BufferLen() != 3 || n.buf.Contains(id(6)) {
		t.Fatalf("the buffer holds %d events, the oldest newcomer stored: %v", n.BufferLen(), n.buf.Contains(id(6)))
	}
}

func TestEvictReasonString(t *testing.T) {
	cases := map[EvictReason]string{
		EvictCapacity:   "capacity",
		EvictExpired:    "expired",
		EvictResize:     "resize",
		EvictReason(99): "EvictReason(99)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(r), got, want)
		}
	}
}

// TestTwoNodeDissemination wires two nodes directly and checks an event
// crosses over with its age advanced.
func TestTwoNodeDissemination(t *testing.T) {
	peers := staticPeers{"a", "b"}
	var deliveredAtB []Event
	na := newTestNode(t, "a", peers)
	nb := newTestNode(t, "b", peers, WithDeliver(func(e Event) {
		deliveredAtB = append(deliveredAtB, e)
	}))

	na.Broadcast([]byte("payload"))
	for _, out := range na.Tick() {
		if out.To == "b" {
			nb.Receive(out.Msg)
		}
	}
	if len(deliveredAtB) != 1 {
		t.Fatalf("delivered %d at b, want 1", len(deliveredAtB))
	}
	if deliveredAtB[0].Age != 1 {
		t.Fatalf("age at delivery = %d, want 1", deliveredAtB[0].Age)
	}
	if string(deliveredAtB[0].Payload) != "payload" {
		t.Fatalf("payload %q", deliveredAtB[0].Payload)
	}
}

func TestEventIDString(t *testing.T) {
	eid := EventID{Origin: "node-3", Seq: 17}
	if got := eid.String(); got != "node-3/17" {
		t.Fatalf("String = %q", got)
	}
}

func TestEventCloneIsDeep(t *testing.T) {
	e := Event{ID: id("a", 1), Age: 2, Payload: []byte{1, 2, 3}}
	c := e.Clone()
	c.Payload[0] = 9
	if e.Payload[0] != 1 {
		t.Fatal("Clone shares payload")
	}
}

func TestMessageCloneIsDeep(t *testing.T) {
	m := &Message{
		From:   "a",
		Events: []Event{{ID: id("a", 1), Payload: []byte{5}}},
		Subs:   []NodeID{"x"},
	}
	c := m.Clone()
	c.Events[0].Payload[0] = 7
	c.Subs[0] = "z"
	if m.Events[0].Payload[0] != 5 || m.Subs[0] != "x" {
		t.Fatal("Clone shares state with original")
	}
}

// TestResumeAgesBuffer: a node resumed after missing rounds has its
// round count and buffered ages moved on by them, and purges what that
// takes past MaxAge as expired, so a restarted member gossips nothing
// its peers' replay windows may already have forgotten.
func TestResumeAgesBuffer(t *testing.T) {
	n := newTestNode(t, "b", staticPeers{"a", "b"})
	n.Receive(&Message{From: "a", Events: []Event{mkEvent("a", 0, 1), mkEvent("a", 1, 4)}})
	n.Resume(2)
	if n.Round() != 2 || n.BufferLen() != 1 || n.Stats().DroppedExpired != 1 {
		t.Fatalf("round %d, %d buffered, %d expired: want 2, 1 and 1", n.Round(), n.BufferLen(), n.Stats().DroppedExpired)
	}
	if age, ok := n.buf.Age(EventID{Origin: "a", Seq: 0}); !ok || age != 3 {
		t.Fatalf("a/0 at age %d (buffered %v), want 3", age, ok)
	}
	n.Resume(1000)
	if n.BufferLen() != 0 || n.Round() != 1002 {
		t.Fatalf("%d buffered at round %d after a long stop: want 0 at 1002", n.BufferLen(), n.Round())
	}
}
