package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
)

// checkBorrowedMatchesOwning is the differential oracle between the two
// decode entry points: given Decode's verdict on data, the borrowed
// decode must reach the same one, and on success its message — detached
// from the envelope with Clone — must equal the owning message.
func checkBorrowedMatchesOwning(t *testing.T, c Codec, in *Inbound, ids *idTable, data []byte, owning *gossip.Message, owningErr error) {
	t.Helper()
	borrowed, err := in.decode(c, ids, data)
	if (err == nil) != (owningErr == nil) {
		t.Fatalf("decode verdicts differ on %x: owning %v, borrowed %v", data, owningErr, err)
	}
	if err != nil {
		return
	}
	if !borrowed.Borrowed || owning.Borrowed {
		t.Fatalf("Borrowed marker: borrowed %t, owning %t", borrowed.Borrowed, owning.Borrowed)
	}
	if detached := borrowed.Clone(); !reflect.DeepEqual(detached, owning) {
		t.Fatalf("borrowed decode differs from owning decode of %x:\nborrowed %#v\n  owning %#v", data, detached, owning)
	}
}

// TestBorrowedDecodeMatchesOwning runs the differential oracle over the
// whole corpus — every kind, stored and compressed, every malformed
// variant and every retired-version relabelling — through one reused envelope
// and intern table, twice, so each frame is also decoded into state left
// behind by every other.
func TestBorrowedDecodeMatchesOwning(t *testing.T) {
	c := DefaultCodec()
	in, ids := &Inbound{}, newIDTable()
	accepted := 0
	for pass := 0; pass < 2; pass++ {
		for _, data := range decodeCorpus(t) {
			owning, err := c.Decode(data)
			if err == nil {
				accepted++
			}
			checkBorrowedMatchesOwning(t, c, in, ids, data, owning, err)
		}
	}
	if accepted < 40 {
		t.Fatalf("corpus has only %d accepted frames; the oracle is not exercising the success path", accepted/2)
	}
}

// TestDecodeRejectsWireLenOverflow is the remote-panic regression: the
// compressed length MaxInt64 used to pass the bounds check by overflow
// and panic the dispatch goroutine on the slice expression.
func TestDecodeRejectsWireLenOverflow(t *testing.T) {
	frame := wireLenOverflowFrame(t)
	if len(frame) > 64 {
		t.Fatalf("regression frame is %d bytes; it is meant to be tiny", len(frame))
	}
	c := DefaultCodec()
	if _, err := c.Decode(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("owning decode of the overflow frame: %v, want ErrTruncated", err)
	}
	if _, err := (&Inbound{}).decode(c, nil, frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("borrowed decode of the overflow frame: %v, want ErrTruncated", err)
	}
	// The same arithmetic guarded every length-prefixed read.
	r := reader{data: make([]byte, 8), off: 4}
	for _, n := range []int{5, 1 << 62, int(^uint(0) >> 1), -1} {
		if err := r.need(n); !errors.Is(err, ErrTruncated) {
			t.Errorf("need(%d) with 4 bytes left: %v, want ErrTruncated", n, err)
		}
	}
	if err := r.need(4); err != nil {
		t.Errorf("need(4) with 4 bytes left: %v", err)
	}
}

// redundantRound is a steady-state round message as a member of a
// group receives it: events from origins distinct origins in runs,
// payloads of payloadLen compressible bytes, and a recovery digest of
// digestLen watermarks, one per origin, the events' origins first.
func redundantRound(events, origins, payloadLen, digestLen int) *gossip.Message {
	m := &gossip.Message{From: "node-03", Round: 41, SamplePeriod: 3,
		MinBuff: []gossip.BuffCap{{Node: "node-11", Cap: 90}}}
	for i := 0; i < events; i++ {
		origin := gossip.NodeID(fmt.Sprintf("node-%02d", i%origins))
		payload := bytes.Repeat([]byte(fmt.Sprintf("event %d of %s;", i, origin)), payloadLen/12+1)[:payloadLen]
		m.Events = append(m.Events, gossip.Event{
			ID: gossip.EventID{Origin: origin, Seq: uint64(100 + i)}, Age: i % 7, Payload: payload,
		})
	}
	for i := 0; i < digestLen; i++ {
		m.Digest = append(m.Digest, gossip.EventID{
			Origin: gossip.NodeID(fmt.Sprintf("node-%02d", i)), Seq: uint64(100 + events + i),
		})
	}
	return m
}

// TestDecodeBorrowedAllocFree is the tentpole's contract: once an
// envelope and the intern table have seen the group's traffic, decoding
// a datagram allocates nothing — not per event, not per id, not per
// payload, and not per compressed section: inflate keeps its tables on
// the stack, so this holds under the race detector too. The same holds for
// the UDP transport's dispatch of the datagram, which adds the sender's
// telemetry row and the hand-off to an InboundHandler.
func TestDecodeBorrowedAllocFree(t *testing.T) {
	flate := DefaultCodec()
	flate.Compression = NewFlateCompressor()
	for _, tc := range []struct {
		name  string
		codec Codec
		msg   *gossip.Message
	}{
		{"stored 22 events x 16 origins", DefaultCodec(), redundantRound(22, 16, 200, 0)},
		{"flate 22 events x 16 origins + 64-id digest", flate, redundantRound(22, 16, 200, 64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := tc.codec.Encode(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			if compressed := frame[4]&flagCompress != 0; compressed != (tc.codec.Compression != nil) {
				t.Fatalf("frame compressed = %t; the case is meant to exercise the other section form", compressed)
			}
			in, ids := &Inbound{}, newIDTable()
			var got *gossip.Message
			allocs := testing.AllocsPerRun(200, func() {
				if got, err = in.decode(tc.codec, ids, frame); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state borrowed decode allocates %v times per datagram, want 0", allocs)
			}
			if want := tc.msg; !reflect.DeepEqual(got.Clone(), want) {
				t.Fatalf("alloc-free decode produced the wrong message:\n got %#v\nwant %#v", got.Clone(), want)
			}

			links := observe.NewPeerTable(0)
			tr, err := NewUDPTransport("rx", "127.0.0.1:0", WithUDPPeerTable(links))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if err := tr.Register(tc.msg.From, "127.0.0.1:9"); err != nil {
				t.Fatal(err)
			}
			var handed *Inbound
			tr.SetInboundHandler(func(in *Inbound) { handed = in })
			env := tr.leaseInbound()
			defer env.Release()
			env.n = copy(env.buf, frame)
			if allocs := testing.AllocsPerRun(200, func() { tr.dispatch(env) }); allocs != 0 {
				t.Fatalf("steady-state dispatch allocates %v times per datagram, want 0", allocs)
			}
			if handed != env || !reflect.DeepEqual(handed.Message().Clone(), tc.msg) {
				t.Fatal("dispatch did not hand the decoded envelope to the InboundHandler")
			}
			if got := links.Get(string(tc.msg.From)).MessagesReceived.Load(); got != 201 {
				t.Fatalf("the sender's row counts %d of 201 datagrams", got)
			}
		})
	}
}

// TestDecodeMemoryBound is the real-path memory bound of ROADMAP item 4:
// whatever a peer sends, the decode state that outlives the datagram —
// what an envelope carries back into its free list, and what the intern table
// keeps — stays within a small multiple of the datagram bound. An
// envelope a frame inflated past that is not kept at all.
func TestDecodeMemoryBound(t *testing.T) {
	c := DefaultCodec()
	const k = 6 // read buffer (~1.1x) + maxPooledInbound (4x), rounded up
	checkPooled := func(t *testing.T, in *Inbound) {
		t.Helper()
		if in.retained() > maxPooledInbound {
			return // Release drops it
		}
		if total := len(in.buf) + in.retained(); total > k*DefaultMaxDatagram {
			t.Fatalf("a pooled envelope retains %d bytes, more than %d x DefaultMaxDatagram", total, k)
		}
	}

	t.Run("max-size legitimate frames stay pooled", func(t *testing.T) {
		flate := c
		flate.Compression = NewFlateCompressor()
		for _, codec := range []Codec{c, flate} {
			// As many 32-byte events as a datagram holds: the shape with
			// the most list memory per wire byte that real traffic has.
			msg := redundantRound(1200, 16, 32, recovery.DigestLen)
			chunks, err := codec.EncodeChunks(msg, DefaultMaxDatagram)
			if err != nil {
				t.Fatal(err)
			}
			in := &Inbound{buf: make([]byte, maxDatagramRead)}
			for _, chunk := range chunks {
				if _, err := in.decode(codec, newIDTable(), chunk); err != nil {
					t.Fatal(err)
				}
			}
			if in.retained() > maxPooledInbound {
				t.Fatalf("a full legitimate datagram leaves %d bytes of decode state, over the %d-byte pool bound: real traffic would never be pooled",
					in.retained(), maxPooledInbound)
			}
			checkPooled(t, in)
		}
	})

	t.Run("decompression bomb within the ratio cap is dropped", func(t *testing.T) {
		// ~32 KiB of DEFLATE that inflates to 32 MiB of zeros: within
		// the ratio cap and the section cap, so it is rejected (an
		// empty event list with trailing bytes) only once the whole
		// section is in the scratch.
		raw := make([]byte, 32<<20)
		comp, err := NewFlateCompressor().Compress(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp) > DefaultMaxDatagram {
			t.Fatalf("bomb is %d bytes compressed; it must fit one datagram", len(comp))
		}
		frame := compressedFrame(t, uint64(len(raw)), uint64(len(comp)), comp)

		in := &Inbound{buf: make([]byte, maxDatagramRead)}
		if _, err := in.decode(c, newIDTable(), frame); err == nil {
			t.Fatal("bomb decoded successfully")
		}
		if in.retained() <= maxPooledInbound {
			t.Fatalf("bomb left only %d bytes of scratch; it no longer exercises the drop", in.retained())
		}
		in.leased.Store(true)
		in.Release() // must not pool it; nothing to observe but that it does not panic
		checkPooled(t, in)
	})

	t.Run("spoofed counts reserve nothing", func(t *testing.T) {
		in := &Inbound{buf: make([]byte, maxDatagramRead)}
		for _, data := range decodeCorpus(t) {
			in.decode(c, newIDTable(), data)
			checkPooled(t, in)
			if in.retained() > DefaultMaxDatagram {
				t.Fatalf("a %d-byte corpus frame left %d bytes of decode state", len(data), in.retained())
			}
		}
	})

	t.Run("intern table is capped", func(t *testing.T) {
		ids := newIDTable()
		long := bytes.Repeat([]byte("x"), 200)
		for i := 0; i < 3*maxInternedIDs; i++ {
			if got := ids.intern(fmt.Appendf(long[:180], "%d", i)); len(got) < 181 {
				t.Fatalf("intern returned %q", got)
			}
			ids.intern(fmt.Appendf(nil, "short-%d", i))
		}
		if len(ids.ids) > maxInternedIDs || ids.bytes > maxInternedBytes {
			t.Fatalf("intern table grew to %d ids / %d bytes, bounds %d / %d",
				len(ids.ids), ids.bytes, maxInternedIDs, maxInternedBytes)
		}
		// Past the bound it still answers, by allocating.
		if got := ids.intern([]byte("one-more")); got != "one-more" {
			t.Fatalf("full table interned %q", got)
		}
	})
}

// TestBorrowedMessageSurvivesScribble is the use-after-release guard at
// the protocol boundary: a message is decoded borrowed from buffer b
// (stored section: payloads alias b; flate section: payloads alias the
// envelope's scratch), received by an adaptive node with recovery on,
// and then b and the scratch are overwritten with 0xDD and the message's
// lists zeroed — what the next datagram does to them. Everything the
// node retained must still be what was encoded: the payloads it
// delivered, the ones its next round gossips, the ones its recovery
// store serves — the same bytes the buffer gossips, one copy under both —
// and the ids it now pulls under the advertised watermarks.
func TestBorrowedMessageSurvivesScribble(t *testing.T) {
	flate := DefaultCodec()
	flate.Compression = NewFlateCompressor()
	for name, codec := range map[string]Codec{"stored": DefaultCodec(), "flate": flate} {
		t.Run(name, func(t *testing.T) {
			sent := redundantRound(12, 4, 64, 0)
			sent.Digest = []gossip.EventID{{Origin: "node-01", Seq: 113}, {Origin: "node-02", Seq: 114}}
			want := make(map[gossip.EventID][]byte)
			for _, ev := range sent.Events {
				want[ev.ID] = append([]byte(nil), ev.Payload...)
			}
			frame, err := codec.Encode(sent)
			if err != nil {
				t.Fatal(err)
			}

			var delivered []gossip.Event
			node, err := core.NewAdaptiveNode(core.NodeConfig{
				ID:       "receiver",
				Gossip:   gossip.Params{Fanout: 1, Period: time.Second, MaxEvents: 64, MaxAge: 10},
				Recovery: recovery.Params{Enabled: true},
				Peers:    membership.NewRegistry("receiver", "node-03"),
				RNG:      rand.New(rand.NewPCG(1, 2)),
				Deliver:  func(ev gossip.Event) { delivered = append(delivered, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}

			in := &Inbound{}
			b := append([]byte(nil), frame...)
			msg, err := in.decode(codec, newIDTable(), b)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Now()
			node.Receive(msg, now)
			advertised := node.Gossip().AppendUnseen(nil, "node-01", 114, recovery.DefaultRequestBudget)
			advertised = node.Gossip().AppendUnseen(advertised, "node-02", 115, recovery.DefaultRequestBudget-len(advertised))
			if advertised[len(advertised)-1].Origin != "node-02" {
				t.Fatalf("the round pulls %v, none of node-02", advertised)
			}
			for i := range b {
				b[i] = 0xDD
			}
			scratch := in.scratch[:cap(in.scratch)]
			for i := range scratch {
				scratch[i] = 0xDD
			}
			if name == "flate" && len(scratch) == 0 {
				t.Fatal("flate frame decoded without using the section scratch")
			}
			clear(msg.Events[:cap(msg.Events)])
			clear(msg.Digest[:cap(msg.Digest)])
			*msg = gossip.Message{}

			check := func(what string, events []gossip.Event) {
				t.Helper()
				if len(events) != len(want) {
					t.Fatalf("%s: %d events, want %d", what, len(events), len(want))
				}
				for _, ev := range events {
					if !bytes.Equal(ev.Payload, want[ev.ID]) {
						t.Fatalf("%s: event %s payload %q, want %q", what, ev.ID, ev.Payload, want[ev.ID])
					}
				}
			}
			check("delivered", delivered)

			outs := node.Tick(now)
			if len(outs) == 0 {
				t.Fatal("Tick produced no gossip")
			}
			check("next round's gossip", outs[0].Msg.Events)
			buffered := make(map[gossip.EventID]*byte)
			for _, ev := range outs[0].Msg.Events {
				buffered[ev.ID] = &ev.Payload[0]
			}
			var pulled []gossip.EventID
			for _, out := range outs {
				if out.Msg.Kind == gossip.KindRecoveryRequest && out.To == sent.From {
					pulled = append(pulled, out.Msg.Request...)
				}
			}
			if !reflect.DeepEqual(pulled, advertised) {
				t.Fatalf("recovery pulls %v after the digest list was recycled, want %v", pulled, advertised)
			}

			request := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "node-03"}
			for id := range want {
				request.Request = append(request.Request, id)
			}
			var served []gossip.Event
			for _, out := range node.Receive(request, now) {
				if out.Msg.Kind == gossip.KindRecoveryResponse {
					served = append(served, out.Msg.Events...)
				}
			}
			check("recovery response", served)
			for _, ev := range served {
				if &ev.Payload[0] != buffered[ev.ID] {
					t.Fatalf("event %s: the recovery store serves a second copy of the payload the buffer holds", ev.ID)
				}
			}
		})
	}
}

// BenchmarkCodecDecodeBorrowed is BenchmarkCodecDecodeV5's frame through
// the borrowed entry point with a warm envelope and intern table — the
// per-datagram cost of the UDP receive path. benchgate holds it to zero
// allocations exactly.
func BenchmarkCodecDecodeBorrowed(b *testing.B) {
	c := DefaultCodec()
	msg := benchMessage()
	data, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	in, ids := &Inbound{}, newIDTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.decode(c, ids, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/float64(len(msg.Events)), "bytes/event")
}

// BenchmarkCodecDecodeBorrowedFlate is the same entry point on what an
// everything-on member receives: a flate frame of 22 events x 200 B of
// text from 16 origins with a 64-id recovery digest, inflated into the
// envelope's scratch. benchgate holds it to zero allocations too.
func BenchmarkCodecDecodeBorrowedFlate(b *testing.B) {
	c := flateCodec()
	msg := textRound(22, 200)
	msg.Digest = redundantRound(0, 16, 0, 64).Digest
	data, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	if data[4]&flagCompress == 0 {
		b.Fatal("frame did not compress")
	}
	in, ids := &Inbound{}, newIDTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.decode(c, ids, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/float64(len(msg.Events)), "bytes/event")
}
