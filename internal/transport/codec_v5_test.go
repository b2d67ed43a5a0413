package transport

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"adaptivegossip/internal/gossip"
)

// flateCodec returns the default codec with flate payload compression.
func flateCodec() Codec {
	c := DefaultCodec()
	c.Compression = NewFlateCompressor()
	return c
}

// TestCodecV5CompressedRoundTripAllKinds: messages of every kind
// compressed on encode decode back equal — through a plain codec with
// no compressor configured, pinning the decode-side independence of
// the compression seam.
func TestCodecV5CompressedRoundTripAllKinds(t *testing.T) {
	cz := flateCodec()
	plain := DefaultCodec()
	samples := append(kindSamples(), tracedKindSamples()...)
	compressed := 0
	for _, m := range samples {
		data, err := cz.Encode(m)
		if err != nil {
			t.Fatalf("kind %v: encode: %v", m.Kind, err)
		}
		if data[4]&flagCompress != 0 {
			compressed++
		}
		got, err := plain.Decode(data)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %v compressed round trip mismatch:\n in: %#v\nout: %#v", m.Kind, m, got)
		}
	}
	if compressed == 0 {
		t.Fatal("no sample frame actually compressed — the seam was never exercised")
	}
}

// incompressibleMessage carries random payloads, which flate cannot
// shrink.
func incompressibleMessage() *gossip.Message {
	rng := rand.New(rand.NewPCG(7, 7))
	m := &gossip.Message{From: "stored", Round: 3}
	for i := 0; i < 10; i++ {
		payload := make([]byte, 400)
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		m.AppendEvent(gossip.Event{
			ID:      gossip.EventID{Origin: "stored", Seq: rng.Uint64()},
			Age:     i,
			Payload: payload,
		})
	}
	return m
}

// TestCodecCompressedStoredFallback: when compression cannot shrink the
// section (incompressible random payloads), the encoder stores it raw —
// so EncodedSize stays an exact bound and the compress flag stays
// clear.
func TestCodecCompressedStoredFallback(t *testing.T) {
	cz := flateCodec()
	m := incompressibleMessage()
	data, err := cz.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if data[4]&flagCompress != 0 {
		t.Fatal("incompressible section was compressed anyway")
	}
	if len(data) != cz.EncodedSize(m) {
		t.Fatalf("stored fallback is %d bytes, EncodedSize promised %d", len(data), cz.EncodedSize(m))
	}
	got, err := DefaultCodec().Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("stored-fallback round trip mismatch")
	}
}

// TestCodecCompressedSmallerAndBounded: a compressible message shrinks
// on the wire yet never exceeds the EncodedSize upper bound.
func TestCodecCompressedSmallerAndBounded(t *testing.T) {
	cz := flateCodec()
	m := sampleMessage()
	plainData, err := DefaultCodec().Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cz.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(plainData) {
		t.Fatalf("compressed frame %d bytes, uncompressed %d", len(data), len(plainData))
	}
	if len(data) > cz.EncodedSize(m) {
		t.Fatalf("compressed frame %d bytes exceeds EncodedSize bound %d", len(data), cz.EncodedSize(m))
	}
	if data[4]&flagCompress == 0 {
		t.Fatal("compressible frame did not set the compress flag")
	}
}

// TestCodecStatsCounters: the pre-/post-compression byte counters move
// apart exactly when compression pays, and stay equal on the stored
// path.
func TestCodecStatsCounters(t *testing.T) {
	cz := flateCodec()
	cz.Stats = &CodecStats{}
	if _, err := cz.Encode(sampleMessage()); err != nil {
		t.Fatal(err)
	}
	pre, post := cz.Stats.PreCompressionBytes.Load(), cz.Stats.PostCompressionBytes.Load()
	if pre == 0 || post == 0 || post >= pre {
		t.Fatalf("compressed encode: pre=%d post=%d, want 0 < post < pre", pre, post)
	}

	plain := DefaultCodec()
	plain.Stats = &CodecStats{}
	if _, err := plain.Encode(sampleMessage()); err != nil {
		t.Fatal(err)
	}
	pre, post = plain.Stats.PreCompressionBytes.Load(), plain.Stats.PostCompressionBytes.Load()
	if pre == 0 || pre != post {
		t.Fatalf("uncompressed encode: pre=%d post=%d, want equal and non-zero", pre, post)
	}
}

// compSectionOffset locates the event-section framing (rawLen varint)
// inside an encoded v5 frame of m.
func compSectionOffset(m *gossip.Message) int {
	return frameHdrBytes + controlPreSize(m) + controlPostSize(m)
}

// TestCodecCompressionEnvelopeErrors: every corruption of the
// compression envelope — flag/id disagreement, unknown compressor id,
// truncated or bit-flipped deflate stream, inflated rawLen claims —
// errors cleanly instead of panicking or over-allocating.
func TestCodecCompressionEnvelopeErrors(t *testing.T) {
	cz := flateCodec()
	m := sampleMessage()
	data, err := cz.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if data[4]&flagCompress == 0 {
		t.Fatal("sample frame did not compress; envelope tests need a compressed frame")
	}
	c := DefaultCodec()
	secOff := compSectionOffset(m)
	rawLen, n := uvarint(data[secOff:])
	if n <= 0 {
		t.Fatal("could not parse section rawLen")
	}
	compOff := secOff + n

	t.Run("flag-without-id", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[compOff] = compressorNone // flag still set
		if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("flag/id mismatch not rejected: %v", err)
		}
	})
	t.Run("id-without-flag", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[4] &^= flagCompress
		if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("flag/id mismatch not rejected: %v", err)
		}
	})
	t.Run("unknown-id", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[compOff] = 0x7F
		if _, err := c.Decode(bad); err == nil || !strings.Contains(err.Error(), "unknown compressor") {
			t.Fatalf("unknown compressor id not rejected: %v", err)
		}
	})
	t.Run("bomb-ratio", func(t *testing.T) {
		// Rewrite rawLen to claim far more than DEFLATE could ever
		// produce from this stream; the decoder must refuse before
		// allocating.
		rest := append([]byte(nil), data[secOff+n:]...)
		bad := append([]byte(nil), data[:secOff]...)
		bad = appendUvarintHelper(bad, 100_000_000)
		bad = append(bad, rest...)
		err := decodeErr(c, bad)
		if err == nil || !errors.Is(err, ErrTooLarge) {
			t.Fatalf("decompression bomb claim not rejected: %v", err)
		}
		_ = rawLen
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(data); cut++ {
			if _, err := c.Decode(data[:cut]); err == nil {
				t.Fatalf("strict prefix of %d/%d bytes decoded successfully", cut, len(data))
			}
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Flipping any single byte must never panic; a (lucky) successful
		// decode must still produce a re-encodable message.
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xFF
			dm, err := c.Decode(bad)
			if err != nil {
				continue
			}
			if _, err := c.Encode(dm); err != nil {
				t.Fatalf("byte %d flipped: decoded message fails re-encode: %v", i, err)
			}
		}
	})
}

// uvarint is a test-local minimal varint reader (offset + length).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func appendUvarintHelper(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func decodeErr(c Codec, data []byte) error {
	_, err := c.Decode(data)
	return err
}

// chunkPropertyMessage builds a multi-run message with uneven payload
// sizes so chunk splits land on and around run-group boundaries.
func chunkPropertyMessage(traced bool) *gossip.Message {
	m := &gossip.Message{
		Kind: gossip.KindGossip, From: "chunk-sender", Round: 9, Traced: traced,
		Digest: []gossip.EventID{{Origin: "d-1", Seq: 4}, {Origin: "d-2", Seq: 1 << 30}},
	}
	origins := []gossip.NodeID{"origin-a", "origin-bb-long-name", "o", "origin-a"}
	seq := uint64(100)
	for g, origin := range origins {
		for i := 0; i < 10; i++ {
			var payload []byte
			if n := (g*31 + i*17) % 120; n > 0 {
				payload = bytes.Repeat([]byte{byte(i + 1)}, n)
			}
			hop := 0
			if traced {
				hop = i % 5
			}
			m.AppendEvent(gossip.Event{
				ID:      gossip.EventID{Origin: origin, Seq: seq},
				Age:     (i * 3) % 11,
				Hop:     hop,
				Payload: payload,
			})
			seq += uint64(1 + (i%7)*(g+1))
		}
	}
	return m
}

// TestEncodeChunksBoundaryProperty sweeps the datagram bound one byte
// at a time across the whole message — every split point, including ±1
// byte around every run-group boundary — and asserts the chunking
// contract at each size: no chunk exceeds the bound, every chunk
// decodes standalone, control rides the first chunk only, and the
// reassembled event list is exactly the input.
func TestEncodeChunksBoundaryProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
	}{
		{"v5", false},
		{"v5-traced", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultCodec()
			m := chunkPropertyMessage(tc.traced)
			full := c.EncodedSize(m)
			multi := 0
			for maxSize := 128; maxSize <= full+4; maxSize++ {
				chunks, err := c.EncodeChunks(m, maxSize)
				if err != nil {
					// Tiny bounds may legitimately fail (header or a single
					// event cannot fit); from a comfortable bound on, the
					// split must always succeed.
					if maxSize >= 512 {
						t.Fatalf("maxSize %d: %v", maxSize, err)
					}
					continue
				}
				if len(chunks) >= 3 {
					multi++
				}
				var got []gossip.Event
				for ci, chunk := range chunks {
					if len(chunk) > maxSize {
						t.Fatalf("maxSize %d: chunk %d is %d bytes", maxSize, ci, len(chunk))
					}
					dec, err := DefaultCodec().Decode(chunk)
					if err != nil {
						t.Fatalf("maxSize %d: chunk %d decode: %v", maxSize, ci, err)
					}
					if dec.From != m.From || dec.Kind != m.Kind || dec.Round != m.Round || dec.Traced != tc.traced {
						t.Fatalf("maxSize %d: chunk %d header fields diverged", maxSize, ci)
					}
					if ci > 0 && len(dec.Digest) != 0 {
						t.Fatalf("maxSize %d: continuation chunk %d carries control sections", maxSize, ci)
					}
					got = append(got, dec.Events...)
				}
				if !reflect.DeepEqual(got, m.Events) {
					t.Fatalf("maxSize %d: reassembled %d events != input %d events", maxSize, len(got), len(m.Events))
				}
			}
			if multi == 0 {
				t.Fatal("sweep never produced a 3+-chunk split — the boundary logic went unexercised")
			}
		})
	}
}

// TestEncodeChunksOversizedEventFailsLoudly: a single event that cannot
// fit any datagram is a named error, never a silently oversized chunk.
func TestEncodeChunksOversizedEventFailsLoudly(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "s", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "small", Seq: 1}, Payload: []byte("ok")},
		{ID: gossip.EventID{Origin: "big", Seq: 2}, Payload: bytes.Repeat([]byte{0x5A}, 4096)},
	}}
	_, err := c.EncodeChunks(m, 512)
	if err == nil {
		t.Fatal("oversized event silently chunked")
	}
	if !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("oversized event error is not loud enough: %v", err)
	}
}

// TestAppendEncodeZeroAllocV5 extends the zero-alloc contract to the
// columnar paths the old single-origin test never reached: multi-run
// messages and traced hop columns.
func TestAppendEncodeZeroAllocV5(t *testing.T) {
	c := DefaultCodec()
	for _, tc := range []struct {
		name string
		msg  *gossip.Message
	}{
		{"multi-origin", chunkPropertyMessage(false)},
		{"multi-origin-traced", chunkPropertyMessage(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, 0, c.EncodedSize(tc.msg))
			allocs := testing.AllocsPerRun(200, func() {
				out, err := c.AppendEncode(buf[:0], tc.msg)
				if err != nil {
					t.Fatal(err)
				}
				_ = out
			})
			if allocs != 0 {
				t.Fatalf("AppendEncode allocated %v times per run with sufficient capacity", allocs)
			}
		})
	}
}

// FuzzEventSection targets the columnar event-section decoder directly:
// arbitrary rows must never panic, and a successful decode must
// re-encode to a section that decodes back identically (the
// canonicalization fixed point).
func FuzzEventSection(f *testing.F) {
	for _, m := range kindSamples() {
		f.Add(appendEventSection(nil, m), m.Traced)
	}
	for _, m := range tracedKindSamples() {
		f.Add(appendEventSection(nil, m), true)
	}
	f.Add([]byte{0x01, 0x01, 'x', 0x02}, false) // run longer than count
	f.Add([]byte{0x02, 0x01, 'x', 0x01, 0x00, 0x00, 0x00}, true)
	f.Fuzz(func(t *testing.T, rows []byte, traced bool) {
		c := DefaultCodec()
		m := &gossip.Message{From: "fuzz", Traced: traced}
		if err := c.decodeEventSection(rows, m, nil); err != nil {
			return
		}
		re := appendEventSection(nil, m)
		m2 := &gossip.Message{From: "fuzz", Traced: traced}
		if err := c.decodeEventSection(re, m2, nil); err != nil {
			t.Fatalf("re-encoded section fails decode: %v", err)
		}
		if !reflect.DeepEqual(m.Events, m2.Events) {
			t.Fatal("event section is not a canonicalization fixed point")
		}
	})
}

// alwaysCompressEncode is the v5 encoder as it was before event-less
// messages skipped the compressor: every section goes through Compress
// and is stored only when that did not shrink it. It is the reference
// the shortcut is held to.
func alwaysCompressEncode(t *testing.T, c Codec, m *gossip.Message) []byte {
	t.Helper()
	buf := appendFrame(nil, codecVersion, m)
	buf = appendControlPre(buf, m)
	buf = appendControlPost(buf, m)
	raw := appendEventSection(nil, m)
	buf = appendUvarintHelper(buf, uint64(len(raw)))
	if c.Compression != nil {
		comp, err := c.Compression.Compress(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp)+uvarintLen(uint64(len(comp))) < len(raw) {
			buf[4] |= flagCompress
			buf = append(buf, c.Compression.ID())
			buf = appendUvarintHelper(buf, uint64(len(comp)))
			return append(buf, comp...)
		}
	}
	buf = append(buf, compressorNone)
	return append(buf, raw...)
}

// TestEncodeSkipIsByteIdentical: for every corpus message — each kind,
// traced or not, with and without events — and both codec
// configurations, the encoder's frame is the reference's, byte for byte,
// and the compression counters move by the same amounts. Event-less
// messages in particular were always stored after a failed attempt; now
// they are stored without one.
func TestEncodeSkipIsByteIdentical(t *testing.T) {
	msgs := append(kindSamples(), tracedKindSamples()...)
	msgs = append(msgs, sampleMessage(), incompressibleMessage(), textRound(22, 200), benchMessage())
	n := len(msgs)
	for _, m := range msgs[:n] {
		bare := *m
		bare.Events = nil
		msgs = append(msgs, &bare)
	}
	var eventless, compressed int
	for _, c := range []Codec{DefaultCodec(), flateCodec()} {
		for _, m := range msgs {
			c.Stats = &CodecStats{}
			got, err := c.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			want := alwaysCompressEncode(t, c, m)
			if !bytes.Equal(got, want) {
				t.Fatalf("kind %v, %d events, compression %t: frame differs from the always-compress reference:\n got %x\nwant %x",
					m.Kind, len(m.Events), c.Compression != nil, got, want)
			}
			raw := uint64(eventSectionSize(m))
			post := raw
			if want[4]&flagCompress != 0 {
				compressed++
				wire, _ := uvarint(want[compSectionOffset(m)+uvarintLen(raw)+1:])
				post = wire
			}
			if pre, gotPost := c.Stats.PreCompressionBytes.Load(), c.Stats.PostCompressionBytes.Load(); pre != raw || gotPost != post {
				t.Fatalf("kind %v, %d events: compression counters %d -> %d, want %d -> %d", m.Kind, len(m.Events), pre, gotPost, raw, post)
			}
			if len(m.Events) == 0 {
				eventless++
				if got[4]&flagCompress != 0 || raw != 1 {
					t.Fatalf("kind %v without events: compressed = %t, section %d bytes", m.Kind, got[4]&flagCompress != 0, raw)
				}
			}
		}
	}
	if eventless < 20 || compressed < 5 {
		t.Fatalf("only %d event-less and %d compressed frames compared", eventless, compressed)
	}
}
