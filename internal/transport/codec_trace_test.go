package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivegossip/internal/gossip"
)

// tracedKindSamples returns one traced representative per wire kind:
// kindSamples with the trace context (hop counters) and a health
// piggyback applied.
func tracedKindSamples() []*gossip.Message {
	msgs := kindSamples()
	for i, m := range msgs {
		m.Traced = true
		for j := range m.Events {
			m.Events[j].Hop = j + i
		}
		if len(m.Health) == 0 {
			m.Health = []gossip.HealthDigest{sampleHealthDigest(gossip.NodeID("h-" + string(rune('a'+i))))}
		}
	}
	return msgs
}

// TestCodecV4TraceRoundTripAllKinds: decode(encode(m)) == m for traced
// messages of every kind, hop counters and health digests included.
func TestCodecV4TraceRoundTripAllKinds(t *testing.T) {
	c := DefaultCodec()
	for _, m := range tracedKindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatalf("kind %v: encode: %v", m.Kind, err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %v traced round trip mismatch:\n in: %#v\nout: %#v", m.Kind, m, got)
		}
	}
}

// TestCodecTracedHopRange: out-of-range hop counters are rejected on
// traced messages (they would not round-trip through the u16 field)
// and ignored on untraced ones (hop does not ride the wire).
func TestCodecTracedHopRange(t *testing.T) {
	c := DefaultCodec()
	ev := gossip.Event{ID: gossip.EventID{Origin: "o", Seq: 1}, Hop: maxUint16 + 1}
	if _, err := c.Encode(&gossip.Message{From: "a", Traced: true, Events: []gossip.Event{ev}}); err == nil {
		t.Fatal("oversized hop accepted on traced message")
	}
	ev.Hop = -1
	if _, err := c.Encode(&gossip.Message{From: "a", Traced: true, Events: []gossip.Event{ev}}); err == nil {
		t.Fatal("negative hop accepted on traced message")
	}
	ev.Hop = maxUint16 + 1
	if _, err := c.Encode(&gossip.Message{From: "a", Events: []gossip.Event{ev}}); err != nil {
		t.Fatalf("untraced message rejected for hop it does not encode: %v", err)
	}
}

// TestCodecQuickRoundTripTraced property-tests traced messages with
// random hop counters and sparse health histograms.
func TestCodecQuickRoundTripTraced(t *testing.T) {
	c := DefaultCodec()
	f := func(from string, round uint64, hops []uint16, seqs []uint64,
		hNode [4]byte, hRound uint64, hCounts [4]uint64, bucketVals [8]uint64) bool {
		if len(from) > 32 {
			from = from[:32]
		}
		if from == "" {
			from = "f"
		}
		m := &gossip.Message{From: gossip.NodeID(from), Round: round, Traced: true}
		n := min(len(hops), len(seqs), 12)
		for i := 0; i < n; i++ {
			m.Events = append(m.Events, gossip.Event{
				ID:  gossip.EventID{Origin: "o", Seq: seqs[i]},
				Hop: int(hops[i]),
			})
		}
		d := gossip.HealthDigest{
			Node:      gossip.NodeID(hNode[:]),
			Round:     hRound,
			Published: hCounts[0], Delivered: hCounts[1],
			MessagesSent: hCounts[2], MessagesReceived: hCounts[3],
		}
		for i, v := range bucketVals {
			// Scatter the buckets across the index range; zero values
			// stay zero (the canonical sparse form skips them).
			d.DeliverHops.Buckets[i*8] = v
			d.DeliverHops.Count += v
		}
		m.Health = []gossip.HealthDigest{d}
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

// TestCodecRejectsNonCanonicalHealth: the decoder enforces the sparse
// histogram's canonical form (ascending indexes, non-zero values, valid
// range), so any accepted payload re-encodes to identical bytes.
func TestCodecRejectsNonCanonicalHealth(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "a", Health: []gossip.HealthDigest{sampleHealthDigest("h")}}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// The histogram tail ends the control fields: ... nb, (idx,val)*,
	// followed only by the empty event section (3 bytes in v5). Locate
	// the first bucket index byte from the end: 3 entries of 9 bytes.
	idxPos := len(data) - 3 - 3*9
	corrupt := func(mutate func([]byte)) []byte {
		d := append([]byte(nil), data...)
		mutate(d)
		return d
	}
	if _, err := c.Decode(corrupt(func(d []byte) { d[idxPos] = 200 })); err == nil {
		t.Error("out-of-range bucket index accepted")
	}
	if _, err := c.Decode(corrupt(func(d []byte) { d[idxPos] = 60 })); err == nil {
		t.Error("descending bucket indexes accepted")
	}
	if _, err := c.Decode(corrupt(func(d []byte) {
		for i := idxPos + 1; i < idxPos+9; i++ {
			d[i] = 0
		}
	})); err == nil {
		t.Error("zero bucket value accepted")
	}
}

// TestCodecDecodeEncodeIdentityOnWire: for traced wire bytes, the decoded
// message re-encodes to the identical byte string — the stronger wire
// identity the canonical health form buys.
func TestCodecDecodeEncodeIdentityOnWire(t *testing.T) {
	c := DefaultCodec()
	for _, m := range tracedKindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		re, err := c.Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(data, re) {
			t.Errorf("kind %v: re-encode differs from wire bytes", m.Kind)
		}
	}
}
