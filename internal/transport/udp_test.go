package transport

import (
	"bytes"
	"math"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func newUDP(t *testing.T, id gossip.NodeID, opts ...UDPOption) *UDPTransport {
	t.Helper()
	tr, err := NewUDPTransport(id, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatalf("NewUDPTransport(%s): %v", id, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestUDPRoundTrip(t *testing.T) {
	a := newUDP(t, "a")
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 1)
	b.SetHandler(func(m *gossip.Message) { got <- m })
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("b", b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	msg := sampleMessage()
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !msgEqual(msg, m) {
			t.Fatalf("mismatch over UDP:\n in %+v\nout %+v", msg, m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("UDP delivery timed out")
	}
	st := a.Stats()
	if st.Sent != 1 || st.SentBytes == 0 {
		t.Fatalf("sender stats %+v", st)
	}
	if st := b.Stats(); st.Received != 1 {
		t.Fatalf("receiver stats %+v", st)
	}
}

func TestUDPSplitLargeMessage(t *testing.T) {
	a := newUDP(t, "a", WithMaxDatagram(2048))
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 16)
	b.SetHandler(func(m *gossip.Message) { got <- m })
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())

	msg := &gossip.Message{From: "a", MinBuff: []gossip.BuffCap{{Node: "a", Cap: 90}}}
	for i := 0; i < 50; i++ {
		msg.Events = append(msg.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "a", Seq: uint64(i)},
			Age:     1,
			Payload: bytes.Repeat([]byte{byte(i)}, 200),
		})
	}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	var events int
	var chunks int
	for events < 50 {
		select {
		case m := <-got:
			chunks++
			events += len(m.Events)
			if len(m.MinBuff) != 1 || m.MinBuff[0].Cap != 90 {
				t.Fatal("chunk lost adaptation header")
			}
		case <-deadline:
			t.Fatalf("received %d/50 events in %d chunks before timeout", events, chunks)
		}
	}
	if chunks < 2 {
		t.Fatalf("expected multiple datagrams, got %d", chunks)
	}
	if a.Stats().SplitChunks == 0 {
		t.Fatal("SplitChunks not counted")
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a := newUDP(t, "a")
	if err := a.Send("ghost", &gossip.Message{From: "a"}); err == nil {
		t.Fatal("send to unregistered peer succeeded")
	}
	if a.Stats().SendErrors != 1 {
		t.Fatalf("stats %+v", a.Stats())
	}
}

func TestUDPGarbageDatagramsCounted(t *testing.T) {
	b := newUDP(t, "b")
	b.SetHandler(func(*gossip.Message) {})
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	// Send raw garbage straight at b's socket.
	conn := a.conn
	addr := b.Addr()
	if _, err := conn.WriteToUDP([]byte("not a gossip message"), addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().DecodeErrors >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("decode errors not counted: %+v", b.Stats())
}

func TestUDPValidation(t *testing.T) {
	if _, err := NewUDPTransport("", "127.0.0.1:0"); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewUDPTransport("a", "not-an-addr:xyz"); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := NewUDPTransport("a", "127.0.0.1:0", WithMaxDatagram(10)); err == nil {
		t.Fatal("tiny datagram bound accepted")
	}
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := NewUDPTransport("a", "127.0.0.1:0", WithUDPSendLoss(p, 1)); err == nil {
			t.Fatalf("send loss %v accepted", p)
		}
	}
}

func TestUDPDoubleStartAndClose(t *testing.T) {
	a := newUDP(t, "a")
	a.SetHandler(func(*gossip.Message) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestUDPNoHandlerCounted(t *testing.T) {
	b := newUDP(t, "b")
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	a.Register("b", b.Addr().String())
	a.Send("b", &gossip.Message{From: "a"})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().NoHandler >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("NoHandler not counted: %+v", b.Stats())
}

// TestUDPCompressionCountersUnchangedBySkip sends one fixed sequence —
// round messages with events (one large enough to split), pings, acks, a
// ping-req and a recovery request — through a flate-configured transport
// and holds Stats to what the always-compress reference encoder gives
// for the same datagrams: the event-less messages skip the compressor
// but still add their one section byte to both compression counters, as
// the stored fallback did, so the reported compression ratio is where it
// was.
func TestUDPCompressionCountersUnchangedBySkip(t *testing.T) {
	const maxDg = 2048
	a := newUDP(t, "a", WithMaxDatagram(maxDg), WithUDPCompression(NewFlateCompressor()))
	targets := []gossip.NodeID{"sink-0", "sink-1", "sink-2"}
	for _, id := range targets {
		sink := newUDP(t, id) // bound, never started: the datagrams are only counted
		if err := a.Register(id, sink.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	big := textRound(60, 200)
	sequence := append(kindSamples(), textRound(5, 200), incompressibleMessage(), big, redundantRound(0, 16, 0, 64))
	if a.codec.EncodedSize(big) <= maxDg {
		t.Fatal("the large round message does not split")
	}

	var want UDPStats
	stored, flate := DefaultCodec(), flateCodec()
	for _, m := range sequence {
		// Splitting is decided on the stored encoding, so the stored
		// codec's chunks say which datagrams the message becomes.
		chunks, err := stored.EncodeChunks(m, maxDg)
		if err != nil {
			t.Fatal(err)
		}
		for i, chunk := range chunks {
			part, err := stored.Decode(chunk)
			if err != nil {
				t.Fatal(err)
			}
			frame := alwaysCompressEncode(t, flate, part)
			raw := uint64(eventSectionSize(part))
			post := raw
			if frame[4]&flagCompress != 0 {
				post, _ = uvarint(frame[compSectionOffset(part)+uvarintLen(raw)+1:])
			}
			want.PreCompressionBytes += raw
			want.PostCompressionBytes += post
			want.Sent += uint64(len(targets))
			want.SentBytes += uint64(len(targets) * len(frame))
			if i > 0 {
				want.SplitChunks += uint64(len(targets))
			}
		}
	}

	for _, m := range sequence {
		if sent, err := a.SendMany(targets, m); err != nil || sent != len(targets) {
			t.Fatalf("SendMany kind %v: sent %d, %v", m.Kind, sent, err)
		}
	}
	got := a.Stats()
	if got.Sent != want.Sent || got.SentBytes != want.SentBytes || got.SplitChunks != want.SplitChunks ||
		got.PreCompressionBytes != want.PreCompressionBytes || got.PostCompressionBytes != want.PostCompressionBytes {
		t.Fatalf("stats after the sequence:\n got %+v\nwant %+v", got, want)
	}
	if want.SplitChunks == 0 || want.PostCompressionBytes >= want.PreCompressionBytes {
		t.Fatalf("the sequence exercises nothing: %+v", want)
	}
}
