package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"adaptivegossip/internal/gossip"
)

func sampleMessage() *gossip.Message {
	return &gossip.Message{
		From:         "node-1",
		Round:        42,
		SamplePeriod: 7,
		Traced:       true,
		MinBuff: []gossip.BuffCap{
			{Node: "node-2", Cap: 45},
			{Node: "node-3", Cap: 60},
		},
		Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "node-2", Seq: 1}, Age: 3, Hop: 2, Payload: []byte("hello")},
			{ID: gossip.EventID{Origin: "node-1", Seq: 9}, Age: 0, Hop: 0, Payload: nil},
			{ID: gossip.EventID{Origin: "node-4", Seq: 1 << 40}, Age: 11, Hop: 7, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
		Subs: []gossip.NodeID{"node-5", "node-6"},
		Digest: []gossip.EventID{
			{Origin: "node-2", Seq: 1},
			{Origin: "node-9", Seq: 1 << 33},
		},
		Request: []gossip.EventID{{Origin: "node-8", Seq: 17}},
		Health:  []gossip.HealthDigest{sampleHealthDigest("node-2"), sampleHealthDigest("node-3")},
	}
}

func sampleHealthDigest(node gossip.NodeID) gossip.HealthDigest {
	d := gossip.HealthDigest{
		Node:             node,
		Round:            99,
		WallMillis:       1_700_000_000_123,
		Published:        12,
		Delivered:        340,
		DroppedCapacity:  5,
		DroppedExpired:   2,
		MessagesSent:     77,
		MessagesReceived: 81,
		BytesSent:        1 << 20,
		BytesReceived:    1<<20 + 17,
		BufferLen:        60,
		BufferCap:        120,
	}
	d.DeliverHops.Count = 340
	d.DeliverHops.Sum = 900
	d.DeliverHops.Buckets[0] = 12
	d.DeliverHops.Buckets[2] = 200
	d.DeliverHops.Buckets[3] = 128
	return d
}

// headerSamples are adaptation headers of 0, 1 and 3 entries, one
// with a negative capacity: the codec carries any i32, and the
// estimator drops such a header whole.
func headerSamples() []*gossip.Message {
	return []*gossip.Message{
		{From: "a"},
		{From: "a", SamplePeriod: 3, MinBuff: []gossip.BuffCap{{Node: "a", Cap: 30}}},
		{From: "a", SamplePeriod: 1 << 40, MinBuff: []gossip.BuffCap{
			{Node: "z", Cap: -1}, {Node: "b", Cap: 45}, {Node: "node-3", Cap: 60},
		}},
	}
}

func msgEqual(a, b *gossip.Message) bool {
	if a.From != b.From || a.Round != b.Round || a.Traced != b.Traced {
		return false
	}
	// The period rides the wire only with a header.
	if !slices.Equal(a.MinBuff, b.MinBuff) || len(a.MinBuff) > 0 && a.SamplePeriod != b.SamplePeriod {
		return false
	}
	if len(a.Events) != len(b.Events) ||
		len(a.Subs) != len(b.Subs) ||
		len(a.Health) != len(b.Health) {
		return false
	}
	for i := range a.Events {
		if a.Events[i].ID != b.Events[i].ID || a.Events[i].Age != b.Events[i].Age ||
			!bytes.Equal(a.Events[i].Payload, b.Events[i].Payload) {
			return false
		}
		if a.Traced && a.Events[i].Hop != b.Events[i].Hop {
			return false
		}
	}
	for i := range a.Health {
		// HealthDigest is comparable (the histogram is a fixed array).
		if a.Health[i] != b.Health[i] {
			return false
		}
	}
	for i := range a.Subs {
		if a.Subs[i] != b.Subs[i] {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	c := DefaultCodec()
	for _, m := range append(headerSamples(), sampleMessage()) {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !msgEqual(m, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
		}
	}
}

// TestAdaptationHeaderWireSize pins the header's cost: an absent one is
// its 2-byte zero count inside a 42-byte header-less frame, and a
// header adds the 8-byte period plus 2 + len(owner) + 4 bytes per entry.
func TestAdaptationHeaderWireSize(t *testing.T) {
	c := DefaultCodec()
	const base = 42 // frame 6, control 29 + 4, empty event section 3
	if got := c.EncodedSize(&gossip.Message{From: "a"}); got != base {
		t.Fatalf("header-less frame = %d bytes, want %d", got, base)
	}
	for _, m := range headerSamples() {
		want := base
		if len(m.MinBuff) > 0 {
			want += 8
		}
		for _, e := range m.MinBuff {
			want += 2 + len(e.Node) + 4
		}
		data, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != want {
			t.Fatalf("%d-entry header: frame is %d bytes, want %d", len(m.MinBuff), len(data), want)
		}
	}
}

func TestCodecRoundTripMinimal(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "x"}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !msgEqual(m, got) {
		t.Fatalf("minimal round trip mismatch: %+v", got)
	}
}

func TestCodecEncodedSizeIsExact(t *testing.T) {
	c := DefaultCodec()
	for _, m := range append(headerSamples(), sampleMessage()) {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.encodedSize(m); got != len(data) {
			t.Fatalf("encodedSize = %d, actual %d", got, len(data))
		}
	}
}

func TestCodecNegativeMinBuffSurvives(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "a", MinBuff: []gossip.BuffCap{{Node: "a", Cap: -5}}}
	data, _ := c.Encode(m)
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MinBuff) != 1 || got.MinBuff[0].Cap != -5 {
		t.Fatalf("MinBuff = %+v, want one entry of -5", got.MinBuff)
	}
}

func TestCodecRejectsBadMagicAndVersion(t *testing.T) {
	c := DefaultCodec()
	data, _ := c.Encode(sampleMessage())
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[3] = 99
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := c.Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestRetiredVersionsRejected: codecVersion is the only wire version.
// Every corpus frame relabelled as v3, v4, v5 or v6 is refused with
// ErrBadMagic by both decode entry points, and a UDP transport counts
// it as a decode error instead of delivering it.
func TestRetiredVersionsRejected(t *testing.T) {
	frames := retiredVersions(decodeCorpus(t))
	if len(frames) < 100 {
		t.Fatalf("only %d retired-version frames; the corpus lost its current-version seeds", len(frames))
	}
	c := DefaultCodec()
	in, ids := &Inbound{}, newIDTable()
	for _, data := range frames {
		if _, err := c.Decode(data); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Decode of a v%d frame: %v, want ErrBadMagic", data[3], err)
		}
		if _, err := in.decode(c, ids, data); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Inbound.decode of a v%d frame: %v, want ErrBadMagic", data[3], err)
		}
	}
	checkCountedAsDecodeErrors(t, frames)
}

// checkCountedAsDecodeErrors sends each frame to a UDP transport and
// requires it to be counted as a decode error, never delivered.
func checkCountedAsDecodeErrors(t *testing.T, frames [][]byte) {
	t.Helper()
	b := newUDP(t, "b")
	b.SetHandler(func(m *gossip.Message) { t.Errorf("rejected frame delivered: %+v", m) })
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	a := newUDP(t, "a")
	for i, data := range frames {
		if _, err := a.conn.WriteToUDP(data, b.Addr()); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for b.Stats().DecodeErrors < uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d of %d not counted as a decode error: %+v", i, len(frames), b.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestUnknownFlagsRejected: a frame with a flag bit no encoder sets —
// bit 0, the retired adaptation-header flag, bit 1, the retired group
// tag, or any of bits 4–7 — is refused by both decode entry points, and
// a UDP transport counts it as a decode error instead of delivering it.
func TestUnknownFlagsRejected(t *testing.T) {
	c := DefaultCodec()
	in, ids := &Inbound{}, newIDTable()
	var frames [][]byte
	for _, data := range decodeCorpus(t) {
		if _, err := c.Decode(data); err != nil {
			continue
		}
		for _, bit := range []byte{1 << 0, 1 << 1, 1 << 4, 1 << 5, 1 << 6, 1 << 7} {
			bad := append([]byte(nil), data...)
			bad[4] |= bit
			if _, err := c.Decode(bad); err == nil {
				t.Fatalf("Decode accepted flags %#08b", bad[4])
			}
			if _, err := in.decode(c, ids, bad); err == nil {
				t.Fatalf("Inbound.decode accepted flags %#08b", bad[4])
			}
			if len(frames) < 5 {
				frames = append(frames, bad)
			}
		}
	}
	if len(frames) < 5 {
		t.Fatal("the corpus has no frame that decodes")
	}
	checkCountedAsDecodeErrors(t, frames)
}

func TestCodecRejectsTruncationsEverywhere(t *testing.T) {
	c := DefaultCodec()
	data, _ := c.Encode(sampleMessage())
	for cut := 0; cut < len(data); cut++ {
		if _, err := c.Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}

func TestCodecRejectsTrailingGarbage(t *testing.T) {
	c := DefaultCodec()
	data, _ := c.Encode(sampleMessage())
	if _, err := c.Decode(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecLimits(t *testing.T) {
	c := Codec{MaxPayload: 8, MaxIDLen: 4, MaxEvents: 2}
	// Payload too large for encode.
	m := &gossip.Message{From: "a", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "b", Seq: 1}, Payload: bytes.Repeat([]byte{1}, 9)},
	}}
	if _, err := c.Encode(m); err == nil {
		t.Fatal("oversized payload encoded")
	}
	// ID too long.
	m = &gossip.Message{From: "abcdef"}
	if _, err := c.Encode(m); err == nil {
		t.Fatal("oversized id encoded")
	}
	// Too many events on decode: craft with permissive encoder, decode
	// with strict limits.
	big := &gossip.Message{From: "a", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "b", Seq: 1}},
		{ID: gossip.EventID{Origin: "b", Seq: 2}},
		{ID: gossip.EventID{Origin: "b", Seq: 3}},
	}}
	data, err := DefaultCodec().Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(data); err == nil {
		t.Fatal("too many events accepted on decode")
	}
}

func TestCodecFuzzDecodeNeverPanics(t *testing.T) {
	c := DefaultCodec()
	rng := rand.New(rand.NewSource(99))
	valid, _ := c.Encode(sampleMessage())
	for i := 0; i < 3000; i++ {
		data := append([]byte(nil), valid...)
		// Flip a few random bytes.
		for k := 0; k < 1+rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		c.Decode(data) // must not panic; errors are fine
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		c.Decode(data)
	}
}

// TestCodecQuickRoundTrip property-tests arbitrary (bounded) messages.
func TestCodecQuickRoundTrip(t *testing.T) {
	c := DefaultCodec()
	f := func(from string, round uint64, adaptive bool, sp uint64, mb int32,
		origins [][8]byte, seqs []uint64, ages []uint8, payloads [][]byte) bool {
		if len(from) > 64 {
			from = from[:64]
		}
		if from == "" {
			from = "f"
		}
		m := &gossip.Message{From: gossip.NodeID(from), Round: round, SamplePeriod: sp}
		if adaptive {
			m.MinBuff = []gossip.BuffCap{{Node: m.From, Cap: int(mb)}}
		}
		n := len(origins)
		if len(seqs) < n {
			n = len(seqs)
		}
		if len(ages) < n {
			n = len(ages)
		}
		if len(payloads) < n {
			n = len(payloads)
		}
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			pl := payloads[i]
			if len(pl) > 1024 {
				pl = pl[:1024]
			}
			m.Events = append(m.Events, gossip.Event{
				ID:      gossip.EventID{Origin: gossip.NodeID(origins[i][:]), Seq: seqs[i]},
				Age:     int(ages[i]),
				Payload: pl,
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
		return msgEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeChunksSplitsAndEachChunkDecodes(t *testing.T) {
	c := DefaultCodec()
	m := sampleMessage()
	// Add enough events to exceed a small datagram bound.
	for i := 0; i < 100; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "bulk", Seq: uint64(i)},
			Age:     2,
			Payload: bytes.Repeat([]byte{byte(i)}, 100),
		})
	}
	const maxSize = 1024
	chunks, err := c.EncodeChunks(m, maxSize)
	if err != nil {
		t.Fatalf("EncodeChunks: %v", err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected a split, got %d chunk(s)", len(chunks))
	}
	var events int
	for i, chunk := range chunks {
		if len(chunk) > maxSize {
			t.Fatalf("chunk %d is %d bytes > %d", i, len(chunk), maxSize)
		}
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d decode: %v", i, err)
		}
		// The adaptation header rides every chunk; the rest of the
		// control headers ride the first.
		if dm.From != m.From || dm.SamplePeriod != m.SamplePeriod || !slices.Equal(dm.MinBuff, m.MinBuff) {
			t.Fatalf("chunk %d header mismatch", i)
		}
		if i == 0 {
			if len(dm.Subs) == 0 {
				t.Fatal("first chunk lost control headers")
			}
		} else if len(dm.Subs) != 0 {
			t.Fatalf("chunk %d duplicated control headers", i)
		}
		events += len(dm.Events)
	}
	if events != len(m.Events) {
		t.Fatalf("chunks carry %d events, want %d", events, len(m.Events))
	}
}

func TestEncodeChunksSingleWhenSmall(t *testing.T) {
	c := DefaultCodec()
	chunks, err := c.EncodeChunks(sampleMessage(), DefaultMaxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("small message split into %d chunks", len(chunks))
	}
}

func TestEncodeChunksRejectsUnsplittableEvent(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "a", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "b", Seq: 1}, Payload: bytes.Repeat([]byte{1}, 4096)},
	}}
	if _, err := c.EncodeChunks(m, 1024); err == nil {
		t.Fatal("unsplittable event accepted")
	}
}

func TestCodecReflectDeepEqualGuard(t *testing.T) {
	// msgEqual must agree with reflect.DeepEqual on the sample message
	// round trip (guards against msgEqual drifting from the struct).
	c := DefaultCodec()
	m := sampleMessage()
	data, _ := c.Encode(m)
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("DeepEqual mismatch:\n in: %#v\nout: %#v", m, got)
	}
}
