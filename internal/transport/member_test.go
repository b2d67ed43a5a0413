package transport

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

// twoPeers samples the same two peers every round.
type twoPeers struct{}

func (twoPeers) SamplePeers(gossip.NodeID, int, *rand.Rand) []gossip.NodeID {
	return []gossip.NodeID{"p1", "p2"}
}

// memberParams are the small member the tests below feed decoded frames.
var memberParams = gossip.Params{Fanout: 2, Period: time.Second, MaxEvents: 8, MaxAge: 5}

// newMember returns a member holding three events of its own.
func newMember(tb testing.TB) *gossip.Node {
	tb.Helper()
	n, err := gossip.NewNode("member", memberParams, twoPeers{}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		tb.Fatal(err)
	}
	for range 3 {
		n.Broadcast([]byte("own"))
	}
	return n
}

// forgedAgeFrame encodes a gossip message carrying one event, id, at
// age math.MaxInt64: the largest age the decoder accepts.
func forgedAgeFrame(tb testing.TB, id gossip.EventID) []byte {
	tb.Helper()
	data, err := DefaultCodec().Encode(&gossip.Message{
		From:   "mallory",
		Events: []gossip.Event{{ID: id, Age: math.MaxInt64, Payload: []byte("x")}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// checkRoundsEncode runs rounds Ticks on n and requires every round
// message to encode and decode, with every age in [0, MaxAge] and no
// more events than the buffer holds.
func checkRoundsEncode(t *testing.T, n *gossip.Node, rounds int) {
	t.Helper()
	c := DefaultCodec()
	for r := 0; r < rounds; r++ {
		for _, out := range n.Tick() {
			data, err := c.AppendEncode(nil, out.Msg)
			if err != nil {
				t.Fatalf("round %d: the member's message fails to encode: %v", r, err)
			}
			m, err := c.Decode(data)
			if err != nil {
				t.Fatalf("round %d: the member's message fails to decode: %v", r, err)
			}
			if len(m.Events) > memberParams.MaxEvents {
				t.Fatalf("round %d: %d events from a buffer of %d", r, len(m.Events), memberParams.MaxEvents)
			}
			for _, ev := range m.Events {
				if ev.Age < 0 || ev.Age > memberParams.MaxAge {
					t.Fatalf("round %d: event %s sent at age %d, outside [0, %d]", r, ev.ID, ev.Age, memberParams.MaxAge)
				}
			}
		}
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
			n := newMember(t)
			m, err := DefaultCodec().Decode(forgedAgeFrame(t, tc.id))
			if err != nil {
				t.Fatal(err)
			}
			n.Receive(m)
			expired := n.Stats().DroppedExpired
			checkRoundsEncode(t, n, 1)
			if got := n.Stats().DroppedExpired - expired; got != 1 {
				t.Fatalf("the Tick after the forged age expired %d events, want 1", got)
			}
			if _, ok := n.Buffered(tc.id); ok {
				t.Fatalf("%s is still buffered after it expired", tc.id)
			}
			checkRoundsEncode(t, n, 2)
		})
	}
}

// FuzzMemberRoundTrip: whatever a member accepts, it can send. The input
// is decoded and fed to a member holding events of its own; each of the
// next three rounds' messages must encode and decode, with every age in
// [0, MaxAge] and no more events than the buffer holds.
func FuzzMemberRoundTrip(f *testing.F) {
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	f.Add(forgedAgeFrame(f, gossip.EventID{Origin: "mallory", Seq: 7}))
	f.Add(forgedAgeFrame(f, gossip.EventID{Origin: "member", Seq: 1}))
	c := DefaultCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return
		}
		n := newMember(t)
		n.Receive(m)
		checkRoundsEncode(t, n, 3)
	})
}
