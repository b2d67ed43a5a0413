package transport

import (
	"bytes"
	"testing"

	"adaptivegossip/internal/gossip"
)

func TestAppendEncodeMatchesEncode(t *testing.T) {
	c := DefaultCodec()
	msg := sampleMessage()
	want, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix-bytes")
	got, err := c.AppendEncode(append([]byte(nil), prefix...), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatal("AppendEncode clobbered the existing buffer contents")
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("AppendEncode produced different bytes than Encode")
	}
	dec, err := c.Decode(got[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !msgEqual(msg, dec) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", msg, dec)
	}
}

func TestAppendEncodeRejectsInvalid(t *testing.T) {
	c := DefaultCodec()
	if _, err := c.AppendEncode(nil, nil); err == nil {
		t.Fatal("nil message accepted")
	}
	bad := &gossip.Message{From: gossip.NodeID(bytes.Repeat([]byte{'x'}, 300))}
	if _, err := c.AppendEncode(nil, bad); err == nil {
		t.Fatal("oversized from id accepted")
	}
}

func TestEncodedSizeExact(t *testing.T) {
	c := DefaultCodec()
	for _, msg := range append(headerSamples(),
		sampleMessage(),
		&gossip.Message{From: "a", Kind: gossip.KindPing, Probe: "b", ProbeSeq: 9},
	) {
		enc, err := c.AppendEncode(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.EncodedSize(msg), len(enc); got != want {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes", got, want)
		}
	}
}

// TestAppendEncodeZeroAlloc asserts the steady-state contract the
// pooled wire path depends on: encoding into a buffer with enough
// capacity allocates nothing.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	c := DefaultCodec()
	msg := sampleMessage()
	buf := make([]byte, 0, c.EncodedSize(msg))
	allocs := testing.AllocsPerRun(200, func() {
		out, err := c.AppendEncode(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode allocated %v times per run with sufficient capacity", allocs)
	}
}

// TestAppendEncodeCompressedAllocFree extends the contract to a codec
// with flate configured: the section is staged in place, the codec
// keeps the compressor's output scratch on its own free list and the
// compressor its deflaters on its, so a compressed encode into a sized
// buffer allocates nothing either, under the race detector too; and a
// message without events never reaches the compressor at all.
func TestAppendEncodeCompressedAllocFree(t *testing.T) {
	c := flateCodec()
	for name, msg := range map[string]*gossip.Message{
		"22 x 200 B text":   textRound(22, 200),
		"incompressible":    incompressibleMessage(),
		"ping (no events)":  {Kind: gossip.KindPing, From: "node-03", Round: 9, ProbeSeq: 4},
		"digest, no events": redundantRound(0, 16, 0, 64),
	} {
		buf := make([]byte, 0, c.EncodedSize(msg))
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := c.AppendEncode(buf[:0], msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: AppendEncode with flate allocates %v times per message, want 0", name, allocs)
		}
	}
}
