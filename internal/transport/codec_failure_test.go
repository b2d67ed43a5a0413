package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivegossip/internal/gossip"
)

// TestCodecRoundTripFailureFields: the probe fields survive a full
// round trip on every kind that carries them.
func TestCodecRoundTripFailureFields(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{
		Kind:     gossip.KindPingReq,
		From:     "requester",
		Round:    7,
		Probe:    "target-node",
		ProbeSeq: 1 << 50,
		Updates: []gossip.MemberUpdate{
			{Node: "a", Status: gossip.MemberAlive, Incarnation: 0},
			{Node: "b", Status: gossip.MemberSuspect, Incarnation: 9},
			{Node: "c", Status: gossip.MemberConfirmed, Incarnation: 1 << 60},
		},
	}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", m, got)
	}
}

// TestCodecUpdatesOnGossip: rumors piggyback on regular gossip, the
// detector's main dissemination channel.
func TestCodecUpdatesOnGossip(t *testing.T) {
	c := DefaultCodec()
	m := sampleMessage()
	m.Updates = []gossip.MemberUpdate{{Node: "x", Status: gossip.MemberSuspect, Incarnation: 4}}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("gossip+updates round trip mismatch:\n in: %#v\nout: %#v", m, got)
	}
}

// TestCodecRejectsBadMemberStatus: statuses beyond the defined range
// fail encode and decode.
func TestCodecRejectsBadMemberStatus(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{
		From:    "a",
		Updates: []gossip.MemberUpdate{{Node: "b", Status: 99}},
	}
	if _, err := c.Encode(m); err == nil {
		t.Error("unknown member status accepted by Encode")
	}
	good := &gossip.Message{
		From:    "a",
		Updates: []gossip.MemberUpdate{{Node: "b", Status: gossip.MemberAlive, Incarnation: 1}},
	}
	data, err := c.Encode(good)
	if err != nil {
		t.Fatal(err)
	}
	// The status byte sits right after the update's node string; corrupt
	// it and the decoder must reject.
	found := false
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] = 0x7F
		if m2, err := c.Decode(mut); err == nil && len(m2.Updates) > 0 && m2.Updates[0].Status > gossip.MemberConfirmed {
			t.Fatalf("corrupt status decoded as %d", m2.Updates[0].Status)
		} else if err != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("no corruption was ever rejected (test is vacuous)")
	}
}

// TestCodecRejectsOversizedProbeID: probe identifiers obey MaxIDLen.
func TestCodecRejectsOversizedProbeID(t *testing.T) {
	c := Codec{MaxIDLen: 4}
	if _, err := c.Encode(&gossip.Message{From: "a", Probe: "too-long"}); err == nil {
		t.Error("oversized probe id accepted")
	}
	if _, err := c.Encode(&gossip.Message{From: "a", Updates: []gossip.MemberUpdate{{Node: "too-long"}}}); err == nil {
		t.Error("oversized update id accepted")
	}
}

// TestCodecQuickRoundTripFailureKinds property-tests the probe kinds
// with bounded random probe fields and update lists.
func TestCodecQuickRoundTripFailureKinds(t *testing.T) {
	c := DefaultCodec()
	f := func(kindSel uint8, from, probe string, seq uint64,
		nodes [][5]byte, statuses []uint8, incs []uint64) bool {
		if len(from) > 32 {
			from = from[:32]
		}
		if from == "" {
			from = "f"
		}
		if len(probe) > 32 {
			probe = probe[:32]
		}
		m := &gossip.Message{
			Kind:     gossip.KindPing + gossip.MessageKind(kindSel%3),
			From:     gossip.NodeID(from),
			Probe:    gossip.NodeID(probe),
			ProbeSeq: seq,
		}
		n := min(len(nodes), len(statuses), len(incs), 10)
		for i := 0; i < n; i++ {
			m.Updates = append(m.Updates, gossip.MemberUpdate{
				Node:        gossip.NodeID(nodes[i][:]),
				Status:      gossip.MemberStatus(statuses[i] % 3),
				Incarnation: incs[i],
			})
		}
		data, err := c.Encode(m)
		if err != nil {
			return false
		}
		got, err := c.Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCodecChunkingKeepsKindForProbeTraffic: probe messages are tiny
// and never split, but a chunked gossip message carrying updates keeps
// them on the first chunk only.
func TestCodecChunkingKeepsUpdatesOnFirstChunk(t *testing.T) {
	c := DefaultCodec()
	m := sampleMessage()
	m.Updates = []gossip.MemberUpdate{{Node: "u", Status: gossip.MemberSuspect, Incarnation: 8}}
	for i := 0; i < 200; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "bulk", Seq: uint64(i)},
			Payload: make([]byte, 64),
		})
	}
	chunks, err := c.EncodeChunks(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected a split, got %d chunk(s)", len(chunks))
	}
	for i, chunk := range chunks {
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if i == 0 && len(dm.Updates) != 1 {
			t.Error("first chunk lost the updates")
		}
		if i > 0 && len(dm.Updates) != 0 {
			t.Errorf("chunk %d duplicated the updates", i)
		}
	}
}
