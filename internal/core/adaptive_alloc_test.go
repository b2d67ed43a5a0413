package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
)

// TestEverythingOnRoundAllocFree is the allocation contract of the member
// a deployment actually runs: adaptation, recovery, failure detection
// (with RTT harvesting) and health digests all enabled, in a 16-member
// group. One steady-state round — a Tick, then what a member receives
// within a period: the ack of its own ping, a ping to answer, a ping-req
// to relay with the subject's ack to forward, and a round message
// carrying events it already has, an adaptation header one period
// ahead (so every round fast-forwards the member's clock and refills a
// fresh period), a recovery digest, rumors and health digests —
// allocates nothing. It holds at κ = 1, the paper's minimum, whose
// one-entry header displaces the member's own entry, and at κ = 3, whose
// peer sends κ entries that push the member's own out of the period,
// plus a forged one naming the member below its capacity, which the
// member skips. (An
// event seen for the first time costs its payload copy, carved from the
// node's arena; that is TestReceiveBorrowedAllocsPerNewEvent's subject.)
func TestEverythingOnRoundAllocFree(t *testing.T) {
	const members = 16
	ids := make([]gossip.NodeID, members)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("node-%02d", i))
	}
	self, peer, subject := ids[0], ids[1], ids[2]
	for _, tc := range []struct {
		name    string
		rank    int
		hdr     []gossip.BuffCap // the κ entries the peer advertises
		minBuff int              // the estimate the round's headers lead to
	}{
		{name: "minimum", rank: 1, hdr: []gossip.BuffCap{{Node: peer, Cap: 90}}, minBuff: 90},
		{name: "kmin-3", rank: 3, hdr: []gossip.BuffCap{{Node: self, Cap: 80}, {Node: ids[3], Cap: 90}, {Node: ids[4], Cap: 100}, {Node: ids[5], Cap: 110}}, minBuff: 110},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := DefaultParams()
			cp.InitialRate = 5
			cp.MinBuffRank = tc.rank
			metrics := &observe.NodeMetrics{}
			node, err := NewAdaptiveNode(NodeConfig{
				ID:       self,
				Gossip:   gossip.Params{Fanout: 4, Period: 50 * time.Millisecond, MaxEvents: 120, MaxAge: 10},
				Adaptive: true,
				Core:     cp,
				Recovery: recovery.Params{Enabled: true},
				Failure:  failure.Params{Enabled: true},
				Health:   health.Params{Enabled: true},
				Links:    observe.NewPeerTable(64),
				Metrics:  metrics,
				Peers:    membership.NewRegistry(ids...),
				RNG:      rand.New(rand.NewPCG(15, 15)),
				Deliver:  func(gossip.Event) {},
				Start:    start,
			})
			if err != nil {
				t.Fatal(err)
			}

			// What the peer sends every round: 22 events from all origins,
			// the ids of the same events as its recovery digest, an alive
			// rumor and three health digests.
			round := &gossip.Message{From: peer, MinBuff: tc.hdr}
			for i := 0; i < 22; i++ {
				ev := gossip.Event{
					ID:      gossip.EventID{Origin: ids[i%members], Seq: uint64(i)},
					Age:     i % 5,
					Payload: make([]byte, 200),
				}
				round.Events = append(round.Events, ev)
				round.Digest = append(round.Digest, ev.ID)
			}
			round.Updates = []gossip.MemberUpdate{{Node: ids[5], Status: gossip.MemberAlive, Incarnation: 1}}
			for _, id := range ids[3:6] {
				round.Health = append(round.Health, gossip.HealthDigest{Node: id, BufferCap: 120})
			}
			ack := &gossip.Message{Kind: gossip.KindPingAck}
			ping := &gossip.Message{Kind: gossip.KindPing, From: peer}
			pingReq := &gossip.Message{Kind: gossip.KindPingReq, From: peer, Probe: subject}
			relayedAck := &gossip.Message{Kind: gossip.KindPingAck, From: subject, Probe: subject}

			now := start
			var pings, acks, relayed int
			oneRound := func() {
				now = now.Add(50 * time.Millisecond)
				for _, out := range node.Tick(now) {
					if out.Msg.Kind == gossip.KindPing {
						pings++
						ack.From, ack.ProbeSeq = out.To, out.Msg.ProbeSeq
					}
				}
				if ack.From != "" {
					node.Receive(ack, now)
					ack.From = ""
				}
				ping.Round++
				ping.ProbeSeq++
				for _, out := range node.Receive(ping, now) {
					if out.Msg.Kind == gossip.KindPingAck && out.To == peer {
						acks++
					}
				}
				pingReq.ProbeSeq++
				relayedAck.ProbeSeq = pingReq.ProbeSeq
				node.Receive(pingReq, now)
				for _, out := range node.Receive(relayedAck, now) {
					if out.Msg.Kind == gossip.KindPingAck && out.To == peer && out.Msg.Probe == subject {
						relayed++
					}
				}
				round.Round++
				round.SamplePeriod = node.SamplePeriod() + 1
				for i := range round.Events {
					round.Events[i].Age++
				}
				for i := range round.Health {
					round.Health[i].Round++
				}
				node.Receive(round, now)
			}

			// Warm-up: the events are delivered once, every member has been
			// probed at least once (the detector and the link table
			// allocate a row at first contact) and the scratch slices reach
			// their working sizes.
			const warmup, runs = 100, 20
			for i := 0; i < warmup; i++ {
				oneRound()
			}
			if allocs := testing.AllocsPerRun(runs, oneRound); allocs != 0 {
				t.Errorf("an everything-on round allocates %v times, want 0", allocs)
			}
			if want := warmup + runs + 1; pings < want-3 || acks != want || relayed != want {
				t.Fatalf("over %d rounds: %d pings launched, %d pings answered, %d acks relayed — the round is not doing what it claims",
					want, pings, acks, relayed)
			}
			st := node.RecoveryStats()
			if hs := node.HealthStats(); st.DigestsSent == 0 || st.DigestsReceived == 0 || hs.DigestsMerged == 0 || node.FailureStats().UpdatesReceived == 0 {
				t.Fatalf("subsystems idle: recovery %+v, health %+v, failure %+v", st, hs, node.FailureStats())
			}
			if got := node.MinBuffEstimate(); got != tc.minBuff {
				t.Fatalf("minBuff estimate %d, want %d: the round's adaptation headers are not reaching the estimator", got, tc.minBuff)
			}
		})
	}
}

// TestEverythingOnReceiveAllocFree is the receive side of
// TestEverythingOnRoundAllocFree: what an everything-on member does
// with the control traffic that asks something of it. Every round, an
// origin's next event arrives by push and a digest advertises the
// origin three seqs past it, so the member lacks three ids, which it
// requests at the next Tick; a response brings the even one, and the
// odd ones are requested again and again until the window's floor
// passes them and the member gives them up; a peer requests events the
// member stores,
// which it serves; a ping-req has it relay a ping and forward the
// subject's ack; and rumors refute and then apply a suspicion of a
// member that never speaks for itself. After warm-up none of it
// allocates. (The recovered events carry no payload: a first-sight
// payload's copy is TestReceiveBorrowedAllocsPerNewEvent's subject.)
func TestEverythingOnReceiveAllocFree(t *testing.T) {
	const members = 16
	ids := make([]gossip.NodeID, members)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("node-%02d", i))
	}
	self, peer, subject, origin := ids[0], ids[1], ids[2], ids[6]
	const silent = gossip.NodeID("node-99") // rumored about, never heard from
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       self,
		Gossip:   gossip.Params{Fanout: 4, Period: 50 * time.Millisecond, MaxEvents: 120, MaxAge: 10},
		Adaptive: true,
		Core:     DefaultParams(),
		Recovery: recovery.Params{Enabled: true},
		Failure:  failure.Params{Enabled: true},
		Health:   health.Params{Enabled: true},
		Links:    observe.NewPeerTable(64),
		Metrics:  &observe.NodeMetrics{},
		Peers:    membership.NewRegistry(ids...),
		RNG:      rand.New(rand.NewPCG(16, 16)),
		Deliver:  func(gossip.Event) {},
		Start:    start,
	})
	if err != nil {
		t.Fatal(err)
	}

	pushed := &gossip.Message{From: peer, Events: make([]gossip.Event, 1)}
	digest := &gossip.Message{From: peer, Digest: make([]gossip.EventID, 1)}
	response := &gossip.Message{Kind: gossip.KindRecoveryResponse, From: peer, Events: make([]gossip.Event, 0, 64)}
	request := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: peer, Request: make([]gossip.EventID, 0, 64)}
	ack := &gossip.Message{Kind: gossip.KindPingAck}
	pingReq := &gossip.Message{Kind: gossip.KindPingReq, From: peer, Probe: subject}
	relayedAck := &gossip.Message{Kind: gossip.KindPingAck, From: subject, Probe: subject}
	rumors := &gossip.Message{From: peer, Updates: make([]gossip.MemberUpdate, 2)}

	now, next, incarnation := start, uint64(0), uint64(0)
	var requested, served, relayed int
	oneRound := func() {
		now = now.Add(50 * time.Millisecond)
		response.Events = response.Events[:0]
		for _, out := range node.Tick(now) {
			switch out.Msg.Kind {
			case gossip.KindPing:
				ack.From, ack.ProbeSeq = out.To, out.Msg.ProbeSeq
			case gossip.KindRecoveryRequest:
				for _, id := range out.Msg.Request {
					requested++
					if id.Seq%2 == 0 {
						response.Events = append(response.Events, gossip.Event{ID: id})
					}
				}
			}
		}
		if ack.From != "" {
			node.Receive(ack, now)
			ack.From = ""
		}
		pushed.Events[0] = gossip.Event{ID: gossip.EventID{Origin: origin, Seq: next}}
		pushed.Round++
		node.Receive(pushed, now)
		next += 4
		digest.Digest[0] = gossip.EventID{Origin: origin, Seq: next - 1}
		digest.Round++
		node.Receive(digest, now)
		if len(response.Events) > 0 {
			node.Receive(response, now)
			request.Request = request.Request[:0]
			for _, ev := range response.Events {
				request.Request = append(request.Request, ev.ID)
			}
		}
		for _, out := range node.Receive(request, now) {
			if out.Msg.Kind == gossip.KindRecoveryResponse {
				served += len(out.Msg.Events)
			}
		}
		pingReq.ProbeSeq++
		relayedAck.ProbeSeq = pingReq.ProbeSeq
		node.Receive(pingReq, now)
		for _, out := range node.Receive(relayedAck, now) {
			if out.Msg.Kind == gossip.KindPingAck && out.To == peer && out.Msg.Probe == subject {
				relayed++
			}
		}
		incarnation++
		rumors.Updates[0] = gossip.MemberUpdate{Node: silent, Status: gossip.MemberAlive, Incarnation: incarnation}
		rumors.Updates[1] = gossip.MemberUpdate{Node: silent, Status: gossip.MemberSuspect, Incarnation: incarnation}
		rumors.Round++
		node.Receive(rumors, now)
	}

	// Warm-up: long enough that the window's floor has passed ids the
	// member lacked, and passes more while the rounds are counted.
	const warmup, runs = 100, 40
	for i := 0; i < warmup; i++ {
		oneRound()
	}
	lacked := func() uint64 { return node.Gossip().AppendUnseen(nil, origin, next, 1)[0].Seq }
	rs, fs, first := node.RecoveryStats(), node.FailureStats(), lacked()
	requested, served, relayed = 0, 0, 0
	if allocs := testing.AllocsPerRun(runs, oneRound); allocs != 0 {
		t.Errorf("an everything-on member's control traffic allocates %v times a round, want 0", allocs)
	}
	rs2, fs2 := node.RecoveryStats(), node.FailureStats()
	applied := func(s failure.Stats) uint64 { return s.UpdatesReceived - s.UpdatesIgnored }
	if first == 1 || lacked() == first || rs2.EventsRecovered == rs.EventsRecovered || requested == 0 || served == 0 ||
		relayed != runs+1 || applied(fs2)-applied(fs) != 2*(runs+1) {
		t.Fatalf("over %d rounds: %d ids requested, %d recovered, lowest id lacked %d -> %d, %d events served, %d acks relayed, %d rumors applied — the rounds are not doing what they claim",
			runs+1, requested, rs2.EventsRecovered-rs.EventsRecovered, first, lacked(), served, relayed, applied(fs2)-applied(fs))
	}
	if got := node.MemberStatus(silent); got != gossip.MemberSuspect {
		t.Fatalf("%s is %v after its suspicion was rumored, want suspect", silent, got)
	}
}

// patternPayload fills dst with the payload a test event of this
// sequence number carries, so a reader can tell another event's bytes —
// or a scribble — from the right ones.
func patternPayload(dst []byte, seq uint64) []byte {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.BigEndian.PutUint64(dst[i:], seq)
	}
	return dst
}

// arenaChunk is gossip.Node's payload arena chunk: payloads it copies
// out of a datagram are carved from chunks of this size.
const arenaChunk = 4096

// chunkBound is the most a stretch of borrowed receives may allocate
// for newBytes bytes of first-sight payloads that tile a chunk: the
// chunks they fill, and one already begun.
func chunkBound(newBytes int) float64 { return float64((newBytes+arenaChunk-1)/arenaChunk + 1) }

// TestObserveSharesNodePayloadAllocFree: with recovery on, an event out
// of a Borrowed message is copied out of the datagram once. The node
// makes the copy when it meets the event, into its payload arena, and
// the recovery store, told of the event as the node accepts it, takes
// the node's copy (one backing array under buffer and store). So a
// stretch of messages costs about one allocation per 4 KiB of payload
// new to the member and none per duplicate, and whatever the buffer
// holds, the store serves or a subscriber was handed never aliases the
// datagram. The stretches are counted with the collector off, as in
// gossip's TestReceiveBorrowedAllocsPerNewEvent: AllocsPerRun counts the
// whole process, and the end of a GC cycle wakes the unique package's
// map cleanup, which allocates on a goroutine of its own.
func TestObserveSharesNodePayloadAllocFree(t *testing.T) {
	const bufferCap, perMsg, payloadLen = 8, 4, 32
	const runs = 100
	delivered := make([]gossip.Event, 0, 2*runs*perMsg) // never grows while counted
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       "rx",
		Gossip:   gossip.Params{Fanout: 1, Period: time.Second, MaxEvents: bufferCap, MaxEventIDs: 1 << 14, MaxAge: 10},
		Recovery: recovery.Params{Enabled: true, StoreCapacity: 2 * bufferCap},
		Peers:    membership.NewRegistry("rx", "tx"),
		RNG:      rand.New(rand.NewPCG(18, 18)),
		Start:    start,
		Deliver:  func(e gossip.Event) { delivered = append(delivered, e) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// datagram stands for the transport's receive buffer: every borrowed
	// payload aliases it, and the next message overwrites it.
	datagram := make([]byte, 3*bufferCap*payloadLen)
	msg := &gossip.Message{From: "tx", Borrowed: true}
	next := uint64(0)
	fill := func(seqs ...uint64) {
		msg.Events = msg.Events[:0]
		for i, seq := range seqs {
			msg.Events = append(msg.Events, gossip.Event{
				ID:      gossip.EventID{Origin: "tx", Seq: seq},
				Payload: patternPayload(datagram[i*payloadLen:(i+1)*payloadLen], seq),
			})
		}
	}
	seqs := make([]uint64, 0, 3*bufferCap)
	receiveNew := func(k int) {
		seqs = seqs[:0]
		for ; len(seqs) < k; next++ {
			seqs = append(seqs, next)
		}
		fill(seqs...)
		node.Receive(msg, start)
	}
	scribble := func() {
		for i := range datagram {
			datagram[i] = 0xDD
		}
	}
	request := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "tx", Request: make([]gossip.EventID, 1)}
	serve := func(seq uint64) (gossip.Event, bool) {
		request.Request[0] = gossip.EventID{Origin: "tx", Seq: seq}
		for _, out := range node.Receive(request, start) {
			if out.Msg.Kind == gossip.KindRecoveryResponse {
				// An Event by value: its payload belongs to the store,
				// not to the response scratch.
				return out.Msg.Events[0], true
			}
		}
		return gossip.Event{}, false
	}
	want := make([]byte, payloadLen)
	intact := func(what string, seq uint64, ev gossip.Event) {
		t.Helper()
		if !bytes.Equal(ev.Payload, patternPayload(want, seq)) {
			t.Fatalf("%s: event %d serves %x after the datagram was overwritten", what, seq, ev.Payload)
		}
	}

	for i := 0; i < 50; i++ { // buffer, store and their scratch at working size
		receiveNew(perMsg)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() {
		delivered = delivered[:0]
		for range runs {
			receiveNew(perMsg)
		}
	})
	if bound := chunkBound(runs * perMsg * payloadLen); allocs > bound {
		t.Fatalf("%d borrowed messages of %d new %d-byte events allocate %v times, want at most %v", runs, perMsg, payloadLen, allocs, bound)
	}
	if len(delivered) != runs*perMsg {
		t.Fatalf("%d events delivered, want %d", len(delivered), runs*perMsg)
	}
	if allocs := testing.AllocsPerRun(runs, func() { node.Receive(msg, start) }); allocs != 0 {
		t.Fatalf("a borrowed message of duplicates allocates %v times, want 0", allocs)
	}
	last := append([]uint64(nil), seqs...)
	scribble()
	for _, ev := range delivered {
		intact("delivered", ev.ID.Seq, ev)
	}
	for _, seq := range last {
		held, ok := node.Gossip().Buffered(gossip.EventID{Origin: "tx", Seq: seq})
		served, stored := serve(seq)
		if !ok || !stored {
			t.Fatalf("event %d: buffered %v, stored %v, want both", seq, ok, stored)
		}
		if &served.Payload[0] != &held.Payload[0] {
			t.Fatalf("event %d: the store holds its own payload copy beside the buffer's", seq)
		}
		intact("shared", seq, served)
	}

	// Edge: a message larger than the buffer. Its first events are
	// capacity-evicted inside the same Receive; the store took each,
	// owned, when the node accepted it, as above.
	allocs = testing.AllocsPerRun(1, func() {
		for range 10 {
			receiveNew(bufferCap + perMsg)
		}
	})
	if bound := chunkBound(10 * (bufferCap + perMsg) * payloadLen); allocs > bound {
		t.Fatalf("10 borrowed messages of %d new events, %d of each evicted on arrival, allocate %v times, want at most %v",
			bufferCap+perMsg, perMsg, allocs, bound)
	}
	last = append(last[:0], seqs...)
	scribble()
	for i, seq := range last {
		_, buffered := node.Gossip().Buffered(gossip.EventID{Origin: "tx", Seq: seq})
		if buffered != (i >= perMsg) {
			t.Fatalf("event %d of the oversized message: buffered = %v", i, buffered)
		}
		served, stored := serve(seq)
		if !stored {
			t.Fatalf("event %d of the oversized message never reached the store", i)
		}
		intact("evicted on arrival", seq, served)
	}

	// Edge: an event the node has seen but no longer buffers, and the
	// store no longer holds either. The node drops it as a duplicate
	// without a copy, and the store takes events only when the node
	// first accepts them: a duplicate neither re-enters it, evicting a
	// newer entry, nor costs a copy.
	old := uint64(0)
	if _, stored := serve(old); stored {
		t.Fatal("the stream's first event is still stored; the edge is not exercised")
	}
	count := node.GossipStats().Delivered
	allocs = testing.AllocsPerRun(1, func() {
		for range 5 {
			fill(old)
			node.Receive(msg, start)
			old++
		}
	})
	if allocs != 0 {
		t.Fatalf("5 duplicates the store lost allocate %v times, want 0", allocs)
	}
	if node.GossipStats().Delivered != count {
		t.Fatal("the forgotten events were delivered again")
	}
	for seq := uint64(0); seq < old; seq++ {
		if _, stored := serve(seq); stored {
			t.Fatalf("duplicate %d re-entered the store", seq)
		}
	}
}

// TestArenaAllocPinBound: a chunk of a member's payload arena stays
// live while any payload carved from it is referenced, so however many
// events pass through, the member's live payload memory is at most one
// chunk per payload it retains — buffer capacity plus store capacity,
// the deliver callback here keeping only the previous payload — plus
// the chunk being filled. A flood of 50,000 first-sight 32-byte events
// in borrowed messages, led by a few payloads larger than a chunk, must
// leave the heap within that after a collection. The callback appends
// to the payload it kept, which must never change the event delivered
// after it, and every buffered and stored payload must outlive the
// datagram.
func TestArenaAllocPinBound(t *testing.T) {
	const (
		bufferCap, storeCap = 8, 16
		perMsg, payloadLen  = 16, 32
		flood               = 50_000
		jumbo               = 2*arenaChunk + 8 // patternPayload fills whole words
		// slack covers what else the member grows to after it was
		// made: the eventIds windows, 6.4 KB at the first origin. The
		// store is made with the engine, before the count, and never
		// grows.
		slack = 64 << 10
	)
	var prev []byte
	var corrupt []gossip.EventID
	want := make([]byte, jumbo)
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       "rx",
		Gossip:   gossip.Params{Fanout: 1, Period: time.Second, MaxEvents: bufferCap, MaxEventIDs: 1 << 10, MaxAge: 10},
		Recovery: recovery.Params{Enabled: true, StoreCapacity: storeCap},
		Peers:    membership.NewRegistry("rx", "tx"),
		RNG:      rand.New(rand.NewPCG(18, 18)),
		Start:    start,
		Deliver: func(e gossip.Event) {
			if prev != nil {
				_ = append(prev, 0xEE, 0xEE, 0xEE, 0xEE)
			}
			if !bytes.Equal(e.Payload, patternPayload(want[:len(e.Payload)], e.ID.Seq)) && len(corrupt) < 8 {
				corrupt = append(corrupt, e.ID)
			}
			prev = e.Payload
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	datagram := make([]byte, jumbo+perMsg*payloadLen)
	msg := &gossip.Message{From: "tx", Borrowed: true, Events: make([]gossip.Event, perMsg)}

	// Two collections each: sync.Pool contents survive the first.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seq := uint64(0); seq < flood; {
		off := 0
		for i := range msg.Events {
			n := payloadLen
			if seq%1000 == 0 && seq < flood/2 {
				n = jumbo
			}
			msg.Events[i] = gossip.Event{
				ID:      gossip.EventID{Origin: "tx", Seq: seq},
				Payload: patternPayload(datagram[off:off+n], seq),
			}
			off += n
			seq++
		}
		node.Receive(msg, start)
		for i := range datagram[:off] {
			datagram[i] = 0xDD
		}
	}
	prev = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	if len(corrupt) > 0 {
		t.Fatalf("events %v were delivered with bytes an append to the previous payload wrote", corrupt)
	}
	if got := node.GossipStats().Delivered; got != flood {
		t.Fatalf("%d events delivered, want all %d", got, flood)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64((bufferCap+storeCap+1)*arenaChunk + slack); growth > limit {
		t.Fatalf("after %d first-sight events the live heap grew %d bytes, want at most %d", flood, growth, limit)
	}
	t.Logf("live heap growth after %d first-sight events: %d bytes", flood, growth)
	request := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "tx", Request: make([]gossip.EventID, 1)}
	for seq := uint64(flood - storeCap); seq < flood; seq++ {
		id := gossip.EventID{Origin: "tx", Seq: seq}
		request.Request[0] = id
		stored := false
		for _, out := range node.Receive(request, start) {
			if out.Msg.Kind == gossip.KindRecoveryResponse {
				stored = bytes.Equal(out.Msg.Events[0].Payload, patternPayload(want[:payloadLen], seq))
			}
		}
		held, ok := node.Gossip().Buffered(id)
		buffered := !ok || bytes.Equal(held.Payload, patternPayload(want[:payloadLen], seq))
		if !stored || !buffered {
			t.Fatalf("event %d: served intact %v, buffered intact (or gone) %v, want both", seq, stored, buffered)
		}
	}
}

// TestAdaptorOverflowScanAllocFree: while the buffer holds more than the
// group-minimum estimate, every Receive runs the Figure 5(b) scan for
// the events that would overflow a buffer of that size. The scan
// appends into the adaptor's scratch, so the congested regime — the one
// the mechanism exists for — allocates no more than the idle one.
func TestAdaptorOverflowScanAllocFree(t *testing.T) {
	const perMsg = 4
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       "rx",
		Gossip:   gossip.Params{Fanout: 1, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		Adaptive: true,
		Core:     DefaultParams(),
		Peers:    membership.NewRegistry("rx", "tx"),
		RNG:      rand.New(rand.NewPCG(18, 18)),
		Start:    start,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A member with a quarter of this one's buffer is in the group.
	msg := &gossip.Message{From: "tx", MinBuff: []gossip.BuffCap{{Node: "tx", Cap: 30}}, Events: make([]gossip.Event, perMsg)}
	next := uint64(0)
	receiveNew := func() {
		for i := range msg.Events {
			msg.Events[i] = gossip.Event{ID: gossip.EventID{Origin: "tx", Seq: next}, Age: int(next % 7)}
			next++
		}
		node.Receive(msg, start)
	}
	for i := 0; i < 200; i++ { // buffer full, lost set and scratch at working size
		receiveNew()
	}
	if got := node.MinBuffEstimate(); got != 30 {
		t.Fatalf("minBuff estimate = %d, want the advertised 30", got)
	}
	const runs = 100
	samples := node.adaptor.samples
	if allocs := testing.AllocsPerRun(runs, receiveNew); allocs != 0 {
		t.Fatalf("a Receive that runs the overflow scan allocates %v times, want 0", allocs)
	}
	if got := node.adaptor.samples - samples; got < perMsg*runs {
		t.Fatalf("%d congestion samples over %d receives of %d new events: the scan is not running", got, runs, perMsg)
	}
	if pinned := node.adaptor.overflow[:cap(node.adaptor.overflow)]; len(pinned) == 0 || pinned[0].ID != (gossip.EventID{}) {
		t.Fatalf("the scan's scratch keeps %d events between receives (first %v); it must hold none", len(pinned), pinned[0].ID)
	}
}
