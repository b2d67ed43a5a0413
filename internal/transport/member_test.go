package transport

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/recovery"
)

// twoPeers samples the same two peers every round.
type twoPeers struct{}

func (twoPeers) AppendPeers(dst []gossip.NodeID, _ gossip.NodeID, _ int, _ *rand.Rand) []gossip.NodeID {
	return append(dst, "p1", "p2")
}

// memberParams are the small member the tests below feed decoded frames.
var memberParams = gossip.Params{Fanout: 2, Period: time.Second, MaxEvents: 8, MaxAge: 5}

// member is an everything-on adaptive node — adaptation, recovery,
// failure detection and health digests — and the clock that drives it.
type member struct {
	*core.AdaptiveNode
	now time.Time
}

// newMember returns a member holding three events of its own, adapting
// to the rank-th smallest buffer (1: the paper's minimum). It publishes
// them one second apart, so that its bucket, refilling at the default
// initial rate of 1 msg/s, admits each.
func newMember(tb testing.TB, rank int) *member {
	tb.Helper()
	cp := core.DefaultParams()
	cp.MinBuffRank = rank
	m := &member{now: time.Unix(1_700_000_000, 0)}
	n, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       "member",
		Gossip:   memberParams,
		Adaptive: true,
		Core:     cp,
		Recovery: recovery.Params{Enabled: true},
		Failure:  failure.Params{Enabled: true},
		Health:   health.Params{Enabled: true},
		Peers:    twoPeers{},
		RNG:      rand.New(rand.NewPCG(1, 2)),
		Start:    m.now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m.AdaptiveNode = n
	for i := range 3 {
		if i > 0 {
			m.now = m.now.Add(time.Second)
		}
		if _, ok := n.Publish([]byte("own"), m.now); !ok {
			tb.Fatal("the member's own publish was refused")
		}
	}
	return m
}

// encodeFrame encodes m with the default codec.
func encodeFrame(tb testing.TB, m *gossip.Message) []byte {
	tb.Helper()
	data, err := DefaultCodec().Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// forgedAgeFrame encodes a gossip message carrying one event, id, at
// age math.MaxInt64: the largest age the decoder accepts.
func forgedAgeFrame(tb testing.TB, id gossip.EventID) []byte {
	return encodeFrame(tb, &gossip.Message{
		From:   "mallory",
		Events: []gossip.Event{{ID: id, Age: math.MaxInt64, Payload: []byte("x")}},
	})
}

// hostilePeriodFrame encodes an adaptation header from sample period
// math.MaxUint64: the largest period the decoder accepts.
func hostilePeriodFrame(tb testing.TB) []byte {
	return encodeFrame(tb, &gossip.Message{
		From: "mallory", SamplePeriod: math.MaxUint64, MinBuff: []gossip.BuffCap{{Node: "mallory", Cap: 4}},
	})
}

// threeEntryHeaderFrame encodes a κ = 3 adaptation header, ascending,
// with events from two of its owners.
func threeEntryHeaderFrame(tb testing.TB) []byte {
	return encodeFrame(tb, &gossip.Message{
		From: "p1", Round: 9, SamplePeriod: 2,
		MinBuff: []gossip.BuffCap{{Node: "p2", Cap: 30}, {Node: "p1", Cap: 60}, {Node: "member", Cap: 120}},
		Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "p1", Seq: 4}, Age: 1, Payload: []byte("a")},
			{ID: gossip.EventID{Origin: "p2", Seq: 8}, Age: 2, Payload: []byte("b")},
		},
	})
}

// forgedOwnerFrame encodes an adaptation header whose one entry names
// not its sender but the receiving member, at capacity 1: attribution
// is a claim the header's sender makes.
func forgedOwnerFrame(tb testing.TB) []byte {
	return encodeFrame(tb, &gossip.Message{
		From: "mallory", SamplePeriod: 1, MinBuff: []gossip.BuffCap{{Node: "member", Cap: 1}},
	})
}

// distinctOriginsFrame encodes a gossip message whose every event has
// an origin of its own, more of them than the member's eventIds set
// holds ids: its origin table grows to the set's capacity and recycles
// entries as the forged origins leave.
func distinctOriginsFrame(tb testing.TB) []byte {
	events := make([]gossip.Event, 32*memberParams.MaxEvents)
	for i := range events {
		events[i] = gossip.Event{ID: gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("forged-%d", i)), Seq: 1}, Payload: []byte("x")}
	}
	return encodeFrame(tb, &gossip.Message{From: "mallory", Events: events})
}

// hostileDigestFrames encodes the gossip frames from "mallory" whose
// recovery digests name, in turn: p1 at seq 2⁶³−1; an origin the member
// never accepted; the member itself at seq 2⁶³−1; and 10,000 entries
// naming all three, p1 and the member at seqs counting down from 2⁶³−1.
// The last is larger than a datagram: it can reach a member only through
// a fabric without that bound, or in pieces.
func hostileDigestFrames(tb testing.TB) [][]byte {
	const top = math.MaxInt64
	many := make([]gossip.EventID, 10_000)
	for i := range many {
		many[i] = []gossip.EventID{{Origin: "p1", Seq: top - uint64(i)}, {Origin: "never", Seq: uint64(i)}, {Origin: "member", Seq: top - uint64(i)}}[i%3]
	}
	var frames [][]byte
	for _, digest := range [][]gossip.EventID{
		{{Origin: "p1", Seq: top}},
		{{Origin: "never", Seq: 70}},
		{{Origin: "member", Seq: top}},
		many,
	} {
		frames = append(frames, encodeFrame(tb, &gossip.Message{From: "mallory", Round: 1, Digest: digest}))
	}
	return frames
}

// checkEncodes requires every message in outs to encode and decode,
// with every age in [0, MaxAge] and no more events than the buffer
// holds.
func checkEncodes(t *testing.T, outs []gossip.Outgoing, what string) {
	t.Helper()
	c := DefaultCodec()
	for _, out := range outs {
		data, err := c.AppendEncode(nil, out.Msg)
		if err != nil {
			t.Fatalf("%s: the member's message fails to encode: %v", what, err)
		}
		m, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s: the member's message fails to decode: %v", what, err)
		}
		if len(m.Events) > memberParams.MaxEvents {
			t.Fatalf("%s: %d events from a buffer of %d", what, len(m.Events), memberParams.MaxEvents)
		}
		for _, ev := range m.Events {
			if ev.Age < 0 || ev.Age > memberParams.MaxAge {
				t.Fatalf("%s: event %s sent at age %d, outside [0, %d]", what, ev.ID, ev.Age, memberParams.MaxAge)
			}
		}
	}
}

// receive feeds the member one decoded frame; whatever it sends in
// reply must encode.
func (m *member) receive(t *testing.T, msg *gossip.Message) {
	t.Helper()
	checkEncodes(t, m.Receive(msg, m.now), "reply")
}

// checkRoundsEncode runs rounds Ticks, one period apart, and requires
// every message they send to encode.
func (m *member) checkRoundsEncode(t *testing.T, rounds int) {
	t.Helper()
	for range rounds {
		m.now = m.now.Add(memberParams.Period)
		checkEncodes(t, m.Tick(m.now), "round")
	}
}

// TestForgedAgeDoesNotSilenceMember: one event decoded at age
// math.MaxInt64 — new to the member, or a copy of one it buffers — is
// purged by the next Tick as expired, and the member's round messages
// keep encoding. Stored as received, the age wrapped negative when the
// Tick advanced it, never expired, and every later round message failed
// to encode.
func TestForgedAgeDoesNotSilenceMember(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   gossip.EventID
	}{
		{"new event", gossip.EventID{Origin: "mallory", Seq: 7}},
		{"duplicate raise", gossip.EventID{Origin: "member", Seq: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newMember(t, 1)
			m, err := DefaultCodec().Decode(forgedAgeFrame(t, tc.id))
			if err != nil {
				t.Fatal(err)
			}
			n.receive(t, m)
			expired := n.GossipStats().DroppedExpired
			n.checkRoundsEncode(t, 1)
			if got := n.GossipStats().DroppedExpired - expired; got != 1 {
				t.Fatalf("the Tick after the forged age expired %d events, want 1", got)
			}
			if _, ok := n.Gossip().Buffered(tc.id); ok {
				t.Fatalf("%s is still buffered after it expired", tc.id)
			}
			n.checkRoundsEncode(t, 2)
		})
	}
}

// TestHostileSamplePeriodDoesNotCrashMember: an adaptive member that
// decodes an adaptation header from period math.MaxUint64, where
// int(period) % W is -1, survives it under the paper's minimum and under
// κ = 3, drops the header — its own period stays where it was — and
// keeps sending.
func TestHostileSamplePeriodDoesNotCrashMember(t *testing.T) {
	for _, rank := range []int{1, 3} {
		n := newMember(t, rank)
		m, err := DefaultCodec().Decode(hostilePeriodFrame(t))
		if err != nil {
			t.Fatal(err)
		}
		before := n.SamplePeriod()
		n.receive(t, m)
		if got := n.SamplePeriod(); got != before {
			t.Fatalf("κ=%d: sample period %d after the header, want %d", rank, got, before)
		}
		n.checkRoundsEncode(t, 3)
	}
}

// TestForgedSelfEntryIgnored: a header entry that names the receiving
// member is a claim about a capacity the member knows itself.
// forgedOwnerFrame's [(member, 1)] leaves the member (buffer 8) at
// estimate 8, relaying [(member, 8)], under the paper's minimum and
// under κ = 3.
func TestForgedSelfEntryIgnored(t *testing.T) {
	for _, rank := range []int{1, 3} {
		n := newMember(t, rank)
		m, err := DefaultCodec().Decode(forgedOwnerFrame(t))
		if err != nil {
			t.Fatal(err)
		}
		n.receive(t, m)
		if got := n.MinBuffEstimate(); got != memberParams.MaxEvents {
			t.Fatalf("κ=%d: estimate %d after the forged self-entry, want %d", rank, got, memberParams.MaxEvents)
		}
		n.now = n.now.Add(memberParams.Period)
		want := []gossip.BuffCap{{Node: "member", Cap: memberParams.MaxEvents}}
		gossiped := false
		for _, out := range n.Tick(n.now) {
			if out.Msg.Kind != gossip.KindGossip {
				continue // probes and recovery requests carry no header
			}
			gossiped = true
			if !slices.Equal(out.Msg.MinBuff, want) {
				t.Fatalf("κ=%d: the member relays header %v, want %v", rank, out.Msg.MinBuff, want)
			}
		}
		if !gossiped {
			t.Fatalf("κ=%d: the member gossiped to no one", rank)
		}
	}
}

// TestHostileDigestsBounded: an everything-on member that accepted p1's
// seqs 0 and 1000, which moved p1's floor to 768 (a ring of four words),
// reads each of hostileDigestFrames' digests without opening a replay
// window. Every round it requests at most RequestBudget ids, none of its
// own, none of p1's under the floor or accepted, and receiving the frame
// and running the round allocate nothing.
func TestHostileDigestsBounded(t *testing.T) {
	const floor = 768
	c := DefaultCodec()
	for i, frame := range hostileDigestFrames(t) {
		n := newMember(t, 1)
		n.receive(t, &gossip.Message{From: "p1", Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "p1", Seq: 0}, Payload: []byte("a")},
			{ID: gossip.EventID{Origin: "p1", Seq: 1000}, Payload: []byte("b")},
		}})
		if lacked := n.Gossip().AppendUnseen(nil, "p1", 1001, 1); lacked[0].Seq != floor {
			t.Fatalf("set-up: p1's lowest id lacked is %v, want seq %d", lacked[0], floor)
		}
		origins := func() []gossip.NodeID {
			var names []gossip.NodeID
			for _, w := range n.Gossip().AppendWatermarks(nil, 1<<10) {
				names = append(names, w.Origin)
			}
			slices.Sort(names)
			return names
		}
		windows := origins()
		msg, err := c.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		round := func() (requested int) {
			n.Receive(msg, n.now)
			n.now = n.now.Add(memberParams.Period)
			for _, out := range n.Tick(n.now) {
				if out.Msg.Kind != gossip.KindRecoveryRequest {
					continue
				}
				for _, id := range out.Msg.Request {
					if id.Origin == "member" || id.Origin == "p1" && (id.Seq < floor || id.Seq == 1000) {
						t.Fatalf("frame %d: the member requests %v", i, id)
					}
				}
				requested += len(out.Msg.Request)
			}
			return requested
		}
		for range 3 {
			if got := round(); got == 0 && i != 2 || got > recovery.DefaultRequestBudget {
				t.Fatalf("frame %d: %d ids requested in a round, want 1 to %d", i, got, recovery.DefaultRequestBudget)
			}
		}
		if got := origins(); !slices.Equal(got, windows) {
			t.Fatalf("frame %d: windows of %v, before the digests %v", i, got, windows)
		}
		if allocs := testing.AllocsPerRun(20, func() { round() }); allocs != 0 {
			t.Fatalf("frame %d: a digest and the round after it allocate %v times, want 0", i, allocs)
		}
	}
}

// FuzzMemberRoundTrip: whatever an everything-on member accepts, it
// survives, and what it sends in reply and in its next three rounds
// encodes and decodes, with every age in [0, MaxAge] and no more events
// than the buffer holds.
func FuzzMemberRoundTrip(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	f.Add(forgedAgeFrame(f, gossip.EventID{Origin: "mallory", Seq: 7}))
	f.Add(forgedAgeFrame(f, gossip.EventID{Origin: "member", Seq: 1}))
	f.Add(hostilePeriodFrame(f))
	f.Add(distinctOriginsFrame(f))
	for _, data := range hostileDigestFrames(f) {
		f.Add(data)
	}
	c := DefaultCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return
		}
		n := newMember(t, 3)
		n.receive(t, m)
		n.checkRoundsEncode(t, 3)
	})
}
