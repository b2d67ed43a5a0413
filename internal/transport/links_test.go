package transport

import (
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// TestUDPPeerTelemetry: per-peer counters on both ends of a UDP
// exchange — messages and bytes by peer on the sender, attribution by
// decoded From on the receiver (for senders in its address book only),
// messages counted per target of SendMany and of Send, its one-target
// case.
func TestUDPPeerTelemetry(t *testing.T) {
	aLinks := observe.NewPeerTable(16)
	bLinks := observe.NewPeerTable(16)
	a := newUDP(t, "a", WithUDPPeerTable(aLinks))
	b := newUDP(t, "b")
	b.SetLinks(bLinks) // post-construction install, the facade's path
	got := make(chan *gossip.Message, 4)
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
	if err := b.Register(msg.From, a.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if n, err := a.SendMany([]gossip.NodeID{"b"}, msg); err != nil || n != 1 {
		t.Fatalf("SendMany = %d, %v", n, err)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("UDP delivery timed out")
	}

	as := aLinks.Get("b")
	if as.MessagesSent.Load() != 1 || as.BytesSent.Load() == 0 {
		t.Fatalf("sender peer stats: sent=%d bytes=%d", as.MessagesSent.Load(), as.BytesSent.Load())
	}
	// Receiver attribution keys on the decoded message's From field.
	bs := bLinks.Get(string(msg.From))
	if bs.MessagesReceived.Load() != 1 || bs.BytesReceived.Load() != as.BytesSent.Load() {
		t.Fatalf("receiver peer stats: recv=%d bytes=%d (sender sent %d)",
			bs.MessagesReceived.Load(), bs.BytesReceived.Load(), as.BytesSent.Load())
	}
	// A sender id the receiver does not know gets no row.
	if err := a.Send("b", &gossip.Message{From: "stranger"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("UDP delivery timed out")
	}
	if n := bLinks.Len(); n != 1 {
		t.Fatalf("receiver keeps %d peer rows, want the registered sender's alone", n)
	}
	if as.MessagesSent.Load() != 2 {
		t.Fatalf("messages sent = %d after a direct Send, want 2", as.MessagesSent.Load())
	}

	// Unknown peers surface as per-peer send errors.
	if _, err := a.SendMany([]gossip.NodeID{"ghost"}, msg); err == nil {
		t.Fatal("unknown peer accepted")
	}
	if g := aLinks.Get("ghost"); g.SendErrors.Load() != 1 {
		t.Fatalf("ghost send errors = %d, want 1", g.SendErrors.Load())
	}
}

// TestUDPPeerTelemetryLossDrops: injected loss is attributed to the
// target peer.
func TestUDPPeerTelemetryLossDrops(t *testing.T) {
	links := observe.NewPeerTable(16)
	a := newUDP(t, "a", WithUDPSendLoss(1.0, 7), WithUDPPeerTable(links))
	b := newUDP(t, "b")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("b", b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", sampleMessage()); err != nil {
		t.Fatal(err)
	}
	ps := links.Get("b")
	if ps.Drops.Load() == 0 || ps.MessagesSent.Load() != 0 {
		t.Fatalf("loss not attributed: drops=%d sent=%d", ps.Drops.Load(), ps.MessagesSent.Load())
	}
}
