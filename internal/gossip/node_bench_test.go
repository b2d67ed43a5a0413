package gossip

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/race"
)

// fixedPeers is a fixed-membership sampler for benchmarks: it returns
// the first k peers without shuffling, so the protocol loop is measured
// without sampling noise (and without sampler allocations).
type fixedPeers []NodeID

func (s fixedPeers) AppendPeers(dst []NodeID, self NodeID, k int, rng *rand.Rand) []NodeID {
	if k > len(s) {
		k = len(s)
	}
	return append(dst, s[:k]...)
}

func benchPeers(n int) fixedPeers {
	peers := make(fixedPeers, n)
	for i := range peers {
		peers[i] = NodeID(string(rune('a' + i)))
	}
	return peers
}

func benchParams() Params {
	return Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10}
}

// steadyNode builds a node whose buffer sits at the paper's steady
// state: 120 buffered events with the full age spread, so every round
// ages, expires and re-fills exactly DefaultMaxEvents/DefaultMaxAge
// events. Extra options (e.g. WithMetrics) apply on top.
func steadyNode(tb testing.TB, opts ...Option) (*Node, []byte) {
	tb.Helper()
	node, err := NewNode("bench", benchParams(), benchPeers(8), rand.New(rand.NewPCG(1, 2)), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, 16)
	// Warm to steady state: births per round = MaxEvents / MaxAge.
	for round := 0; round < 2*benchParams().MaxAge; round++ {
		for i := 0; i < benchParams().MaxEvents/benchParams().MaxAge; i++ {
			node.Broadcast(payload)
		}
		node.Tick()
	}
	return node, payload
}

// tickRound runs one full steady-state gossip round: the per-round
// broadcast quota followed by the Tick emission.
func tickRound(node *Node, payload []byte) []Outgoing {
	for i := 0; i < benchParams().MaxEvents/benchParams().MaxAge; i++ {
		node.Broadcast(payload)
	}
	return node.Tick()
}

// BenchmarkNodeTick measures one steady-state gossip round: 12 local
// births (keeping the 120-slot buffer full against age expiry) plus the
// Tick that ages, purges and addresses the buffer to 4 targets.
func BenchmarkNodeTick(b *testing.B) {
	node, payload := steadyNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := tickRound(node, payload); len(out) != 4 {
			b.Fatalf("expected 4 outgoings, got %d", len(out))
		}
	}
}

// receiveMessage pre-builds a full-buffer gossip message whose event
// identifiers are rewritten in place each iteration: even slots carry
// fresh events, odd slots repeat the previous iteration's identifiers
// (the ~half-duplicates regime of a fanout-4 group).
func receiveMessage() *Message {
	events := make([]Event, 120)
	payload := make([]byte, 16)
	for j := range events {
		events[j] = Event{Age: j % 10, Payload: payload}
	}
	return &Message{From: "peer", Events: events}
}

func rewriteSeqs(msg *Message, iter uint64) {
	for j := range msg.Events {
		seq := iter*uint64(len(msg.Events)) + uint64(j)
		if j%2 == 1 && iter > 0 {
			seq = (iter-1)*uint64(len(msg.Events)) + uint64(j)
		}
		msg.Events[j].ID = EventID{Origin: "peer", Seq: seq}
	}
}

// BenchmarkNodeReceive measures the full receive path: a 120-event
// gossip message, about half duplicates — the per-round inbound
// workload of a node in the paper's configuration.
func BenchmarkNodeReceive(b *testing.B) {
	node, _ := steadyNode(b)
	msg := receiveMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewriteSeqs(msg, uint64(i))
		node.Receive(msg)
	}
}

// BenchmarkNodeReceiveDuplicates measures a 120-event message every
// event of which is already buffered: the copies a member keeps getting
// of what it holds, answered by the buffer alone.
func BenchmarkNodeReceiveDuplicates(b *testing.B) {
	node, _ := steadyNode(b)
	msg := &Message{From: "peer", Events: node.buf.Snapshot()}
	delivered := node.Stats().Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Receive(msg)
	}
	b.StopTimer()
	if len(msg.Events) != benchParams().MaxEvents || node.Stats().Delivered != delivered {
		b.Fatalf("%d events, %d delivered: want a full buffer's worth of duplicates", len(msg.Events), node.Stats().Delivered-delivered)
	}
}

// BenchmarkNodeReceiveRaises measures a 120-event message of buffered
// ids, each one age older than the member's copy: every event is a
// duplicate whose age raise repositions it in the buffer. A raise
// changes nothing but ages and order, so the buffer's entries and
// buckets are restored between messages with the timer stopped.
func BenchmarkNodeReceiveRaises(b *testing.B) {
	node, _ := steadyNode(b)
	msg := &Message{From: "peer", Events: node.buf.Snapshot()}
	for i := range msg.Events {
		msg.Events[i].Age++
	}
	slab, buckets := slices.Clone(node.buf.slab), slices.Clone(node.buf.buckets)
	delivered := node.Stats().Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Receive(msg)
		b.StopTimer()
		if i == 0 {
			for _, ev := range msg.Events {
				if age, _ := node.buf.Age(ev.ID); age != ev.Age {
					b.Fatalf("event %s at age %d after a copy at age %d", ev.ID, age, ev.Age)
				}
			}
		}
		copy(node.buf.slab, slab)
		copy(node.buf.buckets, buckets)
		b.StartTimer()
	}
	b.StopTimer()
	if len(msg.Events) != benchParams().MaxEvents || node.Stats().Delivered != delivered {
		b.Fatalf("%d events, %d delivered: want a full buffer's worth of raises", len(msg.Events), node.Stats().Delivered-delivered)
	}
}

// BenchmarkBufferAdd measures the events-buffer insert path at
// steady-state occupancy (every insert evicts).
func BenchmarkBufferAdd(b *testing.B) {
	buf, err := NewBuffer(120, 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	ages := make([]int, 4096)
	for i := range ages {
		ages[i] = rng.IntN(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := Event{
			ID:  EventID{Origin: "bench", Seq: uint64(i)},
			Age: ages[i%len(ages)],
		}
		if _, _, err := buf.Add(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// The steady-state allocation contracts below are the acceptance
// criteria of the zero-allocation round work: once warmed up, a gossip
// round must not allocate — not in Tick, not in Receive, not in the
// buffer insert path. testing.AllocsPerRun runs on the exact workloads
// of the benchmarks above, with the observe instrumentation ENABLED:
// the histograms are part of the hot path now, so the contract covers
// them too.

func TestNodeTickAllocFree(t *testing.T) {
	node, payload := steadyNode(t, WithMetrics(&observe.NodeMetrics{}))
	// Warm the scratch state (first Tick after rework sizes it).
	for i := 0; i < 4; i++ {
		tickRound(node, payload)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tickRound(node, payload)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %v times per round, want 0", allocs)
	}
}

func TestNodeReceiveAllocFree(t *testing.T) {
	node, _ := steadyNode(t, WithMetrics(&observe.NodeMetrics{}))
	msg := receiveMessage()
	iter := uint64(0)
	// Warm: populate the dedup cache and buffer with this stream.
	for ; iter < 4; iter++ {
		rewriteSeqs(msg, iter)
		node.Receive(msg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		rewriteSeqs(msg, iter)
		node.Receive(msg)
		iter++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Receive allocates %v times per message, want 0", allocs)
	}
}

// patternPayload fills dst with the bytes a test event of this sequence
// number carries, so a reader can tell another event's bytes — or a
// scribble — from the right ones.
func patternPayload(dst []byte, seq uint64) []byte {
	for i := range dst {
		dst[i] = byte(seq>>(8*(i%8))) ^ byte(i)
	}
	return dst
}

// TestReceiveBorrowedAllocsPerNewEvent pins what the receive path
// allocates when the message is on lease from a transport. The payload
// of an event seen for the first time is copied out of the datagram,
// back to back with the others into the node's arena chunks: a stretch
// of messages allocates at most ⌈new payload bytes / 4096⌉ + 1 times
// (16-byte payloads tile a chunk), and a message of duplicates
// allocates nothing, so the copy cost follows deliveries, not the
// wire's redundancy. That every retained payload is a copy is asserted
// directly: with the datagram overwritten, every buffered and every
// delivered payload still reads its own bytes.
//
// AllocsPerRun counts the whole process's allocations, and the end of
// a GC cycle wakes the unique package's cleanup of its maps (net/netip
// keeps one), whose iteration allocates on a goroutine of its own: a
// cycle ending inside the stretch added two allocations to it. The
// stretch is therefore counted with the collector off, right after a
// collection.
func TestReceiveBorrowedAllocsPerNewEvent(t *testing.T) {
	const payloadLen, msgs = 16, 100
	delivered := make([]Event, 0, 1<<14) // never grows while counted
	node, _ := steadyNode(t, WithMetrics(&observe.NodeMetrics{}), WithDeliver(func(e Event) { delivered = append(delivered, e) }))
	msg := receiveMessage()
	msg.Borrowed = true
	datagram := make([]byte, len(msg.Events)*payloadLen)
	iter := uint64(0)
	receive := func() {
		rewriteSeqs(msg, iter)
		for j := range msg.Events {
			msg.Events[j].Payload = patternPayload(datagram[j*payloadLen:(j+1)*payloadLen], msg.Events[j].ID.Seq)
		}
		node.Receive(msg)
		iter++
	}
	for range 4 {
		receive()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		delivered = delivered[:0]
		for range msgs {
			receive()
		}
	})
	fresh := len(delivered)
	if fresh < msgs {
		t.Fatalf("%d messages delivered %d new events; the bound is vacuous", msgs, fresh)
	}
	if bound := (fresh*payloadLen+arenaChunk-1)/arenaChunk + 1; allocs > float64(bound) {
		t.Fatalf("borrowed Receive allocates %v times for %d first-sight events of %d bytes, want at most %d", allocs, fresh, payloadLen, bound)
	}
	for i := range datagram {
		datagram[i] = 0xDD
	}
	want := make([]byte, payloadLen)
	for _, ev := range delivered {
		if !bytes.Equal(ev.Payload, patternPayload(want, ev.ID.Seq)) {
			t.Fatalf("delivered event %s reads %x after the datagram was overwritten", ev.ID, ev.Payload)
		}
	}
	for _, ev := range node.buf.AppendSnapshot(nil) {
		if ev.ID.Origin == "peer" && !bytes.Equal(ev.Payload, patternPayload(want, ev.ID.Seq)) {
			t.Fatalf("buffered event %s reads %x after the datagram was overwritten", ev.ID, ev.Payload)
		}
	}

	count := node.Stats().Delivered
	allocs = testing.AllocsPerRun(msgs, func() { node.Receive(msg) })
	if allocs != 0 {
		t.Fatalf("borrowed Receive of an all-duplicate message allocates %v times, want 0", allocs)
	}
	if node.Stats().Delivered != count {
		t.Fatal("the all-duplicate message delivered events")
	}
}

// TestNodeFootprint pins what NewNode allocates at the paper's setting,
// MaxEvents 120 and MaxAge 10: the buffer's slab (an entry and a free
// list slot per event), its id index at load at most ¼, the round
// snapshot Tick reuses, and a fixed 3 KiB for the age buckets, the
// node, buffer and replay headers and size-class rounding. A second
// array of the buffer's events, as an eviction scratch was, lands in an
// 8 KiB size class and fails it. The collector is off while it counts,
// right after a collection, as in TestReceiveBorrowedAllocsPerNewEvent.
func TestNodeFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector pads every allocation")
	}
	const fixed = 3 << 10
	params := benchParams()
	peers, rng := benchPeers(8), rand.New(rand.NewPCG(1, 2))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewNode("a", params, peers, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	events := uint64(params.MaxEvents)
	slots := uint64(1)
	for slots < bufferIndexSpread*events {
		slots <<= 1
	}
	slab := events * uint64(unsafe.Sizeof(bufEntry{})+unsafe.Sizeof(int(0)))
	index := (events + slots) * 4
	snapshot := events * uint64(unsafe.Sizeof(Event{}))
	total := after.TotalAlloc - before.TotalAlloc
	if bound := slab + index + snapshot + fixed; total > bound {
		t.Fatalf("NewNode allocates %d B, want at most %d: slab %d + index %d + snapshot %d + %d fixed",
			total, bound, slab, index, snapshot, fixed)
	}
	t.Logf("NewNode allocates %d B in %d objects", total, after.Mallocs-before.Mallocs)
}

// TestArenaAllocPayloadsDoNotAlias: payloads carved back to back from
// one chunk must not reach each other through their capacity. A
// subscriber that appends to a payload it was handed — here, the
// previous event's, once the next one has been carved behind it — gets
// a fresh array and never changes the next event's bytes. Payloads over
// the carve cut-off, up to one larger than a chunk, take allocations of
// their own and leave the chunk alone, and every payload survives the
// datagram being overwritten.
func TestArenaAllocPayloadsDoNotAlias(t *testing.T) {
	sizes := []int{1, 7, 32, 200, 0, arenaMaxCarve, arenaMaxCarve + 1, 16, 3000, 511, arenaChunk + 1, 100}
	const perMsg, msgs = 24, 8
	var (
		prev      []byte
		delivered []Event
		corrupt   []EventID
	)
	want := make([]byte, arenaChunk+1)
	node, err := NewNode("rx", benchParams(), benchPeers(2), rand.New(rand.NewPCG(3, 4)), WithDeliver(func(e Event) {
		if prev != nil {
			_ = append(prev, 0xEE, 0xEE, 0xEE, 0xEE)
		}
		if !bytes.Equal(e.Payload, patternPayload(want[:len(e.Payload)], e.ID.Seq)) || cap(e.Payload) != len(e.Payload) {
			corrupt = append(corrupt, e.ID)
		}
		prev = e.Payload
		delivered = append(delivered, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	datagram := make([]byte, perMsg*(arenaChunk+1))
	msg := &Message{From: "peer", Borrowed: true, Events: make([]Event, perMsg)}
	for m := range msgs {
		off := 0
		for j := range msg.Events {
			seq := uint64(m*perMsg + j)
			n := sizes[int(seq)%len(sizes)]
			msg.Events[j] = Event{ID: EventID{Origin: "peer", Seq: seq}, Payload: patternPayload(datagram[off:off+n], seq)}
			off += n
		}
		node.Receive(msg)
		for i := range datagram {
			datagram[i] = 0xDD
		}
	}
	if len(corrupt) > 0 {
		t.Fatalf("events %v were handed out with another event's bytes or with spare capacity", corrupt)
	}
	if len(delivered) != perMsg*msgs {
		t.Fatalf("%d events delivered, want %d", len(delivered), perMsg*msgs)
	}
	for _, ev := range delivered {
		if !bytes.Equal(ev.Payload, patternPayload(want[:len(ev.Payload)], ev.ID.Seq)) {
			t.Fatalf("event %s reads %x after later appends and the datagram's overwrite", ev.ID, ev.Payload)
		}
	}
	tail := len(node.arena)
	if big := node.OwnPayload(make([]byte, arenaMaxCarve+1)); len(big) != arenaMaxCarve+1 || len(node.arena) != tail {
		t.Fatalf("a payload over the cut-off was carved from the chunk (tail %d → %d)", tail, len(node.arena))
	}
	if node.OwnPayload(nil) != nil || node.OwnPayload([]byte{}) == nil {
		t.Fatal("OwnPayload does not keep a nil payload nil and an empty one non-nil, as Event.Clone does")
	}
}

// TestBufferAddAllocFree counts from an empty buffer, so the runs
// include the first inserts, the first insert into a full buffer, which
// writes over its victim's slot, age raises that reposition, expiry
// and inserts into the slots it freed: storage is sized when the buffer
// is made, and nothing grows later.
func TestBufferAddAllocFree(t *testing.T) {
	var bufs []*Buffer // AllocsPerRun calls once before it counts
	for range 2 {
		buf, err := NewBuffer(120, 10)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, buf)
	}
	var buf *Buffer
	steps := func() {
		buf, bufs = bufs[0], bufs[1:]
		for seq := uint64(0); seq < 400; seq++ {
			ev := Event{ID: EventID{Origin: "bench", Seq: seq}, Age: int(seq % 10)}
			if _, _, err := buf.Add(ev); err != nil {
				t.Fatal(err)
			}
			buf.RaiseAge(EventID{Origin: "bench", Seq: seq / 2}, int(seq%12))
			if seq%40 == 39 {
				buf.IncrementAges()
				for _, ok := buf.DropExpired(); ok; _, ok = buf.DropExpired() {
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, steps); allocs != 0 {
		t.Fatalf("400 steps of Add/RaiseAge/DropExpired allocate %v times, want 0", allocs)
	}
	if buf.Len() != buf.Capacity() || buf.checkInvariants() != nil {
		t.Fatalf("the buffer holds %d of %d events (%v): the steps never reached eviction", buf.Len(), buf.Capacity(), buf.checkInvariants())
	}
}

// BenchmarkIDCacheAdd measures the recovery digest's cache at steady
// state.
func BenchmarkIDCacheAdd(b *testing.B) {
	c, err := NewIDCache(3600)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(EventID{Origin: "bench", Seq: uint64(i)})
	}
}

// BenchmarkIDCacheAddSparse measures the recovery digest's cache at
// steady state in a large group where every member sends: a 3,600-id
// cache whose ids come from 1,000 origins in turn, 3.6 per origin in
// the window. The cache is full before the timer starts, so every add
// evicts the oldest id.
func BenchmarkIDCacheAddSparse(b *testing.B) {
	const capacity, origins = 3600, 1000
	names := make([]NodeID, origins)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("member-%03d", i))
	}
	c, err := NewIDCache(capacity)
	if err != nil {
		b.Fatal(err)
	}
	next := func(i int) EventID { return EventID{Origin: names[i%origins], Seq: uint64(i / origins)} }
	for i := range 2 * capacity {
		c.Add(next(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(next(2*capacity + i))
	}
}

// BenchmarkIDCacheContainsCold probes 512 full caches of the paper's
// 1,800 ids, from 60 origins each, at random: about 43 MB of caches, so
// nearly every probe misses the CPU caches, as the lookups of a large
// group's members do. Half the probes ask for a remembered id, half for
// an id of a known origin the cache never saw.
func BenchmarkIDCacheContainsCold(b *testing.B) {
	const caches, capacity, origins = 512, 1800, 60
	names := make([]NodeID, origins)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("member-%02d", i))
	}
	cs := make([]*IDCache, caches)
	for i := range cs {
		c, err := NewIDCache(capacity)
		if err != nil {
			b.Fatal(err)
		}
		for seq := range uint64(capacity) {
			c.Add(EventID{Origin: names[seq%origins], Seq: seq})
		}
		cs[i] = c
	}
	type probe struct {
		c  *IDCache
		id EventID
	}
	rng := rand.New(rand.NewPCG(1, 2))
	probes := make([]probe, 1<<16)
	for i := range probes {
		seq := uint64(rng.IntN(capacity))
		if i%2 == 1 {
			seq += capacity // never added
		}
		probes[i] = probe{cs[rng.IntN(caches)], EventID{Origin: names[seq%origins], Seq: seq}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		p := &probes[i&(len(probes)-1)]
		if p.c.Contains(p.id) {
			found++
		}
	}
	b.StopTimer()
	if found != (b.N+1)/2 {
		b.Fatalf("%d of %d probes found, want the even ones", found, b.N)
	}
}

// BenchmarkReplayAdd measures the node's eventIds, its replay windows,
// at steady state: one origin, 12 new ids a round.
func BenchmarkReplayAdd(b *testing.B) {
	seed := maphash.MakeSeed()
	r := newReplay(3600, 10)
	oh := originHash(seed, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.add(EventID{Origin: "bench", Seq: uint64(i)}, oh, uint32(i/12), true)
	}
}

// BenchmarkReplayAddSparse measures the replay windows of a large group
// where every member sends: ids from 1,000 origins in turn, 3.6 new ids
// a round in all — the shape of BenchmarkIDCacheAddSparse — so every id
// lands in a window of its own origin, and windows reach idleness.
func BenchmarkReplayAddSparse(b *testing.B) {
	const origins = 1000
	seed := maphash.MakeSeed()
	names := make([]NodeID, origins)
	hashes := make([]uint64, origins)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("member-%03d", i))
		hashes[i] = originHash(seed, names[i])
	}
	r := newReplay(3600, 10)
	add := func(i int) {
		r.add(EventID{Origin: names[i%origins], Seq: uint64(i / origins)}, hashes[i%origins], uint32(i/origins), true)
	}
	for i := range 7200 {
		add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(7200 + i)
	}
}
