package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivegossip/internal/gossip"
)

// kindSamples returns one representative message per wire kind.
func kindSamples() []*gossip.Message {
	return []*gossip.Message{
		sampleMessage(), // KindGossip with digest piggyback
		{
			Kind:  gossip.KindRecoveryRequest,
			From:  "puller",
			Round: 12,
			Request: []gossip.EventID{
				{Origin: "origin-a", Seq: 3},
				{Origin: "origin-b", Seq: 1 << 50},
			},
		},
		{
			Kind:  gossip.KindRecoveryResponse,
			From:  "server",
			Round: 13,
			Events: []gossip.Event{
				{ID: gossip.EventID{Origin: "origin-a", Seq: 3}, Age: 9, Payload: []byte("repaired")},
			},
		},
		{
			Kind:     gossip.KindPing,
			From:     "prober",
			Round:    20,
			ProbeSeq: 41,
			Updates: []gossip.MemberUpdate{
				{Node: "m1", Status: gossip.MemberSuspect, Incarnation: 2},
				{Node: "m2", Status: gossip.MemberAlive, Incarnation: 3},
			},
		},
		{
			Kind:     gossip.KindPingAck,
			From:     "subject",
			Round:    21,
			Probe:    "subject",
			ProbeSeq: 41,
		},
		{
			Kind:     gossip.KindPingReq,
			From:     "prober",
			Round:    22,
			Probe:    "silent-node",
			ProbeSeq: 42,
			Updates: []gossip.MemberUpdate{
				{Node: "m3", Status: gossip.MemberConfirmed, Incarnation: 1 << 40},
			},
		},
	}
}

// TestCodecRoundTripAllKinds round-trips a representative message of
// every kind through Encode/Decode and EncodeChunks.
func TestCodecRoundTripAllKinds(t *testing.T) {
	c := DefaultCodec()
	for _, m := range kindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatalf("kind %v: encode: %v", m.Kind, err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %v round trip mismatch:\n in: %#v\nout: %#v", m.Kind, m, got)
		}
		chunks, err := c.EncodeChunks(m, DefaultMaxDatagram)
		if err != nil {
			t.Fatalf("kind %v: chunks: %v", m.Kind, err)
		}
		for i, chunk := range chunks {
			dm, err := c.Decode(chunk)
			if err != nil {
				t.Fatalf("kind %v chunk %d: %v", m.Kind, i, err)
			}
			if dm.Kind != m.Kind {
				t.Errorf("kind %v chunk %d decoded as kind %v", m.Kind, i, dm.Kind)
			}
		}
	}
}

// TestCodecChunkingKeepsRecoveryHeadersOnFirstChunk: a split response
// keeps its kind on every chunk but the digest/request lists only on
// the first.
func TestCodecChunkingKeepsRecoveryHeadersOnFirstChunk(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{
		Kind:   gossip.KindRecoveryResponse,
		From:   "server",
		Digest: []gossip.EventID{{Origin: "x", Seq: 1}},
	}
	for i := 0; i < 200; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "origin", Seq: uint64(i)},
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
	events := 0
	for i, chunk := range chunks {
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if dm.Kind != gossip.KindRecoveryResponse {
			t.Errorf("chunk %d lost the kind: %v", i, dm.Kind)
		}
		if i == 0 && len(dm.Digest) != 1 {
			t.Error("first chunk lost the digest")
		}
		if i > 0 && len(dm.Digest) != 0 {
			t.Errorf("chunk %d duplicated the digest", i)
		}
		events += len(dm.Events)
	}
	if events != len(m.Events) {
		t.Errorf("chunks carry %d events, want %d", events, len(m.Events))
	}
}

// TestCodecChunkingTrimsDigestForSmallDatagrams: with an MTU-sized
// bound, a full recovery digest must not wedge the send path — the
// advisory digest is trimmed until events fit.
func TestCodecChunkingTrimsDigestForSmallDatagrams(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "sender"}
	for i := 0; i < 256; i++ { // ~4KB of digest alone
		m.Digest = append(m.Digest, gossip.EventID{Origin: "some-origin", Seq: uint64(i)})
	}
	for i := 0; i < 50; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "origin", Seq: uint64(i)},
			Payload: make([]byte, 100),
		})
	}
	const maxSize = 1400
	chunks, err := c.EncodeChunks(m, maxSize)
	if err != nil {
		t.Fatalf("EncodeChunks: %v", err)
	}
	events, digest := 0, 0
	for i, chunk := range chunks {
		if len(chunk) > maxSize {
			t.Fatalf("chunk %d is %d bytes > %d", i, len(chunk), maxSize)
		}
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		events += len(dm.Events)
		digest += len(dm.Digest)
	}
	if events != len(m.Events) {
		t.Errorf("chunks carry %d events, want %d", events, len(m.Events))
	}
	if digest == 0 || digest >= 256 {
		t.Errorf("digest should be trimmed but present, got %d of 256 ids", digest)
	}
}

// TestCodecChunkingRejectsOversizedHeader: a header that cannot fit
// even after digest trimming errors instead of emitting an oversized
// datagram.
func TestCodecChunkingRejectsOversizedHeader(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "puller"}
	for i := 0; i < 200; i++ { // requests are not trimmable
		m.Request = append(m.Request, gossip.EventID{Origin: "some-long-origin-name", Seq: uint64(i)})
	}
	if _, err := c.EncodeChunks(m, 600); err == nil {
		t.Fatal("oversized untrimmable header accepted")
	}
}

// TestCodecRejectsUnknownKind: kinds beyond the defined range fail
// encode and decode.
func TestCodecRejectsUnknownKind(t *testing.T) {
	c := DefaultCodec()
	if _, err := c.Encode(&gossip.Message{From: "a", Kind: 200}); err == nil {
		t.Error("unknown kind accepted by Encode")
	}
	data, err := c.Encode(&gossip.Message{From: "a"})
	if err != nil {
		t.Fatal(err)
	}
	data[4+1] = 200 // kind byte follows magic+version (4) and flags (1)
	if _, err := c.Decode(data); err == nil {
		t.Error("unknown kind accepted by Decode")
	}
}

// TestCodecQuickRoundTripAllKinds property-tests bounded random
// messages across every kind, digest and request lists included.
func TestCodecQuickRoundTripAllKinds(t *testing.T) {
	c := DefaultCodec()
	f := func(kindSel uint8, from string, round uint64,
		digestOrigins [][6]byte, digestSeqs []uint64,
		reqOrigins [][6]byte, reqSeqs []uint64,
		payloads [][]byte) bool {
		if len(from) > 32 {
			from = from[:32]
		}
		if from == "" {
			from = "f"
		}
		m := &gossip.Message{
			Kind:  gossip.MessageKind(kindSel % 3),
			From:  gossip.NodeID(from),
			Round: round,
		}
		mkIDs := func(origins [][6]byte, seqs []uint64) []gossip.EventID {
			n := min(len(origins), len(seqs), 12)
			ids := make([]gossip.EventID, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, gossip.EventID{Origin: gossip.NodeID(origins[i][:]), Seq: seqs[i]})
			}
			return ids
		}
		if ids := mkIDs(digestOrigins, digestSeqs); len(ids) > 0 {
			m.Digest = ids
		}
		if ids := mkIDs(reqOrigins, reqSeqs); len(ids) > 0 {
			m.Request = ids
		}
		for i, pl := range payloads {
			if i >= 8 {
				break
			}
			if len(pl) > 512 {
				pl = pl[:512]
			}
			if len(pl) == 0 {
				pl = nil // the decoder leaves empty payloads nil
			}
			m.Events = append(m.Events, gossip.Event{
				ID:      gossip.EventID{Origin: "o", Seq: uint64(i)},
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
		return reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// compressedFrame hand-builds a minimal frame whose event section
// claims to be flate-compressed: rawLen and wireLen as given, body as
// the section bytes — for envelopes no encoder would write.
func compressedFrame(tb testing.TB, rawLen, wireLen uint64, body []byte) []byte {
	tb.Helper()
	data, err := DefaultCodec().Encode(&gossip.Message{From: "x"})
	if err != nil {
		tb.Fatal(err)
	}
	frame := append([]byte(nil), data[:len(data)-3]...) // drop the stored empty section
	frame[4] |= flagCompress
	frame = binary.AppendUvarint(frame, rawLen)
	frame = append(frame, compressorFlate)
	frame = binary.AppendUvarint(frame, wireLen)
	return append(frame, body...)
}

// wireLenOverflowFrame is the remote-panic regression input: a ~50-byte
// frame whose compressed length is MaxInt64, which an `off+n > len`
// bounds check overflows past.
func wireLenOverflowFrame(tb testing.TB) []byte {
	return compressedFrame(tb, 1, 1<<63-1, nil)
}

// decodeCorpus is every frame shape the decoder accepts or must reject
// cleanly: valid encodings of every kind (stored and flate-compressed),
// malformed variants of each, and every current-version frame among
// them relabelled as wire v3, v4, v5 and v6 (retired versions the
// decoder rejects).
// It seeds FuzzCodecDecode and drives the borrowed-vs-owning
// differential test.
func decodeCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	var corpus [][]byte
	add := func(data []byte) { corpus = append(corpus, data) }
	c := DefaultCodec()
	for _, m := range kindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		add(data)
		// Malformed seeds: truncated, kind-corrupted, flag-corrupted,
		// trailing garbage.
		add(data[:len(data)/2])
		bad := append([]byte(nil), data...)
		bad[5] = 0xFF // kind byte
		add(bad)
		flg := append([]byte(nil), data...)
		flg[4] ^= 0xFF // flags byte
		add(flg)
		add(append(append([]byte(nil), data...), 0xAA))
	}
	// Traced seeds: per-event hop counters and health digests on the
	// wire, plus corrupted variants aimed at those sections.
	for _, m := range tracedKindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		add(data)
		add(data[:len(data)-1]) // truncated inside the health tail
		tail := append([]byte(nil), data...)
		tail[len(tail)-9] ^= 0xFF // corrupt a histogram bucket entry
		add(tail)
	}
	// Compressed (flate) seeds of every kind: columnar sections
	// compressed on the wire, plus variants corrupting the compression
	// envelope and the deflate stream itself.
	cz := c
	cz.Compression = NewFlateCompressor()
	for _, m := range append(kindSamples(), sampleMessage(), tracedKindSamples()[0]) {
		data, err := cz.Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		add(append([]byte(nil), data...))
		add(append([]byte(nil), data[:len(data)-4]...)) // truncated deflate stream (or stored section)
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0xFF // corrupt the section tail
		add(bad)
		noflag := append([]byte(nil), data...)
		noflag[4] &^= flagCompress // compressed body, flag cleared
		add(noflag)
	}
	// Adaptation headers: three entries (whole, and cut inside the
	// third entry's capacity: frame, from "p1", round, count, period,
	// two 8-byte entries, the third's id), and one naming an owner
	// other than its sender.
	three := threeEntryHeaderFrame(tb)
	add(three)
	add(three[:frameHdrBytes+4+8+2+8+2*8+2+len("member")+2])
	add(forgedOwnerFrame(tb))
	add([]byte{})
	add([]byte("AGB"))
	add([]byte{'A', 'G', 'B', 1}) // old version: must be rejected
	// Spoofed digest count (0xFFFF) in a tiny datagram: the decoder
	// must fail on truncation without committing large allocations.
	add([]byte{'A', 'G', 'B', codecVersion, 0, 0, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	// Spoofed health count in a minimal message (the health count is
	// the 2 bytes before the 3-byte empty event section).
	if data, err := c.Encode(&gossip.Message{From: "x"}); err == nil {
		spoof := append([]byte(nil), data[:len(data)-5]...)
		spoof = append(spoof, 0xFF, 0xFF)
		add(spoof)
	}
	add(wireLenOverflowFrame(tb))
	return append(corpus, retiredVersions(corpus)...)
}

// retiredVersions relabels every current-version frame of corpus as
// wire v3, v4, v5 and v6. The decoder accepts codecVersion only, so
// each must be rejected with ErrBadMagic.
func retiredVersions(corpus [][]byte) [][]byte {
	var out [][]byte
	for _, data := range corpus {
		if !bytes.HasPrefix(data, []byte{'A', 'G', 'B', codecVersion}) {
			continue
		}
		for _, v := range []byte{3, 4, 5, 6} {
			old := append([]byte(nil), data...)
			old[3] = v
			out = append(out, old)
		}
	}
	return out
}

// FuzzCodecDecode seeds the fuzzer with decodeCorpus and the hostile
// digests of hostileDigestFrames. Neither decode
// entry point may panic; they must accept and reject the same inputs
// and agree on what they decode (the borrowed result, detached with
// Clone, equals the owning one); and a successful decode must
// re-encode. The borrowed side reuses one envelope and one intern table
// across inputs, as a transport does across datagrams.
func FuzzCodecDecode(f *testing.F) {
	c := DefaultCodec()
	for _, data := range decodeCorpus(f) {
		f.Add(data)
	}
	for _, data := range hostileDigestFrames(f) {
		f.Add(data)
	}
	in, ids := &Inbound{}, newIDTable()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		checkBorrowedMatchesOwning(t, c, in, ids, data, m, err)
		if err != nil {
			return
		}
		if _, err := c.Encode(m); err != nil {
			t.Errorf("decoded message fails re-encode: %v", err)
		}
	})
}
