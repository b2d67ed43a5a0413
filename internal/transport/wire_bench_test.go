package transport

import (
	"fmt"
	"testing"

	"adaptivegossip/internal/gossip"
)

// benchMessage is a loaded round message: 30 events of 200 bytes, the
// regime of the paper's Figure 4 experiments (~6.5 KB on the wire).
func benchMessage() *gossip.Message {
	msg := &gossip.Message{From: "bench-sender", Round: 7}
	for i := 0; i < 30; i++ {
		msg.Events = append(msg.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "bench-sender", Seq: uint64(i)},
			Age:     i % 10,
			Payload: make([]byte, 200),
		})
	}
	return msg
}

// fanoutMessage is the round the fanout sweep sends: 30 events of 200
// bytes from one origin, ages spread across the window. Its payloads
// vary, unlike benchMessage's zeros, so flate is measured on bytes that
// do not compress to nothing.
func fanoutMessage() *gossip.Message {
	msg := &gossip.Message{Kind: gossip.KindGossip, From: "wirecost-sender", Round: 42}
	for i := 0; i < 30; i++ {
		body := make([]byte, 200)
		for j := range body {
			body[j] = byte(i + j)
		}
		msg.AppendEvent(gossip.Event{
			ID:      gossip.EventID{Origin: "wirecost-sender", Seq: uint64(i)},
			Age:     i % 10,
			Payload: body,
		})
	}
	return msg
}

// benchFanoutSetup binds one sender and fanout sink sockets. The sinks
// are never started, so the measurement isolates the sender's
// encode+write work.
func benchFanoutSetup(tb testing.TB, fanout int, opts ...UDPOption) (*UDPTransport, []gossip.NodeID) {
	tb.Helper()
	sender, err := NewUDPTransport("bench-sender", "127.0.0.1:0", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sender.Close() })
	targets := make([]gossip.NodeID, 0, fanout)
	for i := 0; i < fanout; i++ {
		id := gossip.NodeID(fmt.Sprintf("sink-%d", i))
		sink, err := NewUDPTransport(id, "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { sink.Close() })
		if err := sender.Register(id, sink.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		targets = append(targets, id)
	}
	return sender, targets
}

// fanoutCodecs are the two section encodings the fanout sweep compares.
var fanoutCodecs = []struct {
	name string
	opts []UDPOption
}{
	{"stored", nil},
	{"flate", []UDPOption{WithUDPCompression(NewFlateCompressor())}},
}

// BenchmarkUDPFanout sweeps one gossip round over loopback UDP against
// fanout, stored and flate-compressed: one op is one SendMany of
// fanoutMessage to every target, and bytes/round is what the socket
// wrote for it.
func BenchmarkUDPFanout(b *testing.B) {
	msg := fanoutMessage()
	for _, codec := range fanoutCodecs {
		sender, targets := benchFanoutSetup(b, 32, codec.opts...)
		for _, fanout := range []int{1, 2, 4, 8, 16, 32} {
			b.Run(fmt.Sprintf("%s/fanout=%d", codec.name, fanout), func(b *testing.B) {
				tos := targets[:fanout]
				before := sender.Stats().SentBytes
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sender.SendMany(tos, msg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(sender.Stats().SentBytes-before)/float64(b.N), "bytes/round")
			})
		}
	}
}

// BenchmarkCodecEncodeAppend compares the append-into-caller-buffer
// encode path against the allocating Encode.
func BenchmarkCodecEncodeAppend(b *testing.B) {
	c := DefaultCodec()
	msg := benchMessage()
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, c.EncodedSize(msg))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := c.AppendEncode(buf[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Encode(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecEncodeV5 pins the columnar encode path for the
// benchgate baseline: ns/op and allocs/op through AppendEncode on the
// Figure-4 regime message, with the wire density as bytes/event.
func BenchmarkCodecEncodeV5(b *testing.B) {
	c := DefaultCodec()
	msg := benchMessage()
	data, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, c.EncodedSize(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.AppendEncode(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
	b.ReportMetric(float64(len(data))/float64(len(msg.Events)), "bytes/event")
}

// BenchmarkCodecDecodeV5 pins the columnar decode path for the
// benchgate baseline.
func BenchmarkCodecDecodeV5(b *testing.B) {
	c := DefaultCodec()
	msg := benchMessage()
	data, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/float64(len(msg.Events)), "bytes/event")
}

// TestEncodeOnceFanoutAllocs pins the encode-once contract: a round
// sent with SendMany allocates nothing, at fanout 1 and at fanout 8,
// stored and flate-compressed.
func TestEncodeOnceFanoutAllocs(t *testing.T) {
	msg := fanoutMessage()
	for _, codec := range fanoutCodecs {
		sender, targets := benchFanoutSetup(t, 8, codec.opts...)
		for _, fanout := range []int{1, 8} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := sender.SendMany(targets[:fanout], msg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s, fanout %d: %.1f allocs/round", codec.name, fanout, allocs)
			if allocs != 0 {
				t.Errorf("%s: SendMany at fanout %d allocates %v times per round, want 0", codec.name, fanout, allocs)
			}
		}
	}
}

// TestEncodeOnceIndependentOfFanout checks what a round costs on the
// wire as fanout grows: every target receives the same datagram, so the
// bytes of a fanout-8 round are exactly eight times those of a fanout-1
// round, and at fanout 8 the flate round costs at most a third of the
// stored round's bytes.
func TestEncodeOnceIndependentOfFanout(t *testing.T) {
	const rounds = 20
	msg := fanoutMessage()
	bytesAt8 := map[string]uint64{}
	for _, codec := range fanoutCodecs {
		sender, targets := benchFanoutSetup(t, 8, codec.opts...)
		perRound := map[int]uint64{}
		for _, fanout := range []int{1, 8} {
			before := sender.Stats().SentBytes
			for i := 0; i < rounds; i++ {
				if _, err := sender.SendMany(targets[:fanout], msg); err != nil {
					t.Fatal(err)
				}
			}
			perRound[fanout] = (sender.Stats().SentBytes - before) / rounds
			t.Logf("%s, fanout %d: %d bytes/round", codec.name, fanout, perRound[fanout])
		}
		if perRound[8] != 8*perRound[1] {
			t.Errorf("%s: %d bytes/round at fanout 8, want 8 x %d at fanout 1", codec.name, perRound[8], perRound[1])
		}
		bytesAt8[codec.name] = perRound[8]
	}
	if stored, flate := bytesAt8["stored"], bytesAt8["flate"]; 3*flate > stored {
		t.Fatalf("flate round only %.1fx smaller than stored at fanout 8 (%d vs %d bytes/round), want >= 3x",
			float64(stored)/float64(flate), flate, stored)
	}
}
