package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestUDPSendManyRoundTrip(t *testing.T) {
	a := newUDP(t, "a")
	a.Start()
	msg := sampleMessage()
	var targets []gossip.NodeID
	type rx struct {
		id  gossip.NodeID
		got chan *gossip.Message
	}
	var rxs []rx
	for i := 0; i < 3; i++ {
		id := gossip.NodeID(fmt.Sprintf("peer-%d", i))
		b := newUDP(t, id)
		got := make(chan *gossip.Message, 1)
		b.SetHandler(func(m *gossip.Message) { got <- m })
		b.Start()
		a.Register(id, b.Addr().String())
		targets = append(targets, id)
		rxs = append(rxs, rx{id: id, got: got})
	}
	sent, err := a.SendMany(targets, msg)
	if err != nil {
		t.Fatal(err)
	}
	if sent != len(targets) {
		t.Fatalf("sent %d of %d targets", sent, len(targets))
	}
	for _, r := range rxs {
		select {
		case m := <-r.got:
			if !msgEqual(msg, m) {
				t.Fatalf("%s: mismatch over SendMany", r.id)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: delivery timed out", r.id)
		}
	}
	if st := a.Stats(); st.Sent != uint64(len(targets)) {
		t.Fatalf("sender stats %+v", st)
	}
}

func TestUDPSendManyUnknownPeer(t *testing.T) {
	a := newUDP(t, "a")
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 1)
	b.SetHandler(func(m *gossip.Message) { got <- m })
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())
	// The unknown target must not stop delivery to the known one.
	sent, err := a.SendMany([]gossip.NodeID{"ghost", "b"}, sampleMessage())
	if err == nil {
		t.Fatal("unknown peer not reported")
	}
	if sent != 1 {
		t.Fatalf("sent = %d, want 1", sent)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("known target not reached")
	}
	if st := a.Stats(); st.SendErrors != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUDPSendManyFallbackShim(t *testing.T) {
	// A transport hidden behind the plain interface still fans out via
	// the per-peer shim.
	a := newUDP(t, "a")
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 1)
	b.SetHandler(func(m *gossip.Message) { got <- m })
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())
	shimmed := plainTransport{a}
	sent, err := SendMany(shimmed, []gossip.NodeID{"b"}, sampleMessage())
	if err != nil || sent != 1 {
		t.Fatalf("shim: sent=%d err=%v", sent, err)
	}
	select {
	case <-got:
	case <-time.After(3 * time.Second):
		t.Fatal("shim delivery timed out")
	}
}

// plainTransport strips the ManySender fast path, standing in for an
// external Transport implementation.
type plainTransport struct{ tr *UDPTransport }

func (p plainTransport) LocalID() gossip.NodeID                         { return p.tr.LocalID() }
func (p plainTransport) Send(to gossip.NodeID, m *gossip.Message) error { return p.tr.Send(to, m) }
func (p plainTransport) SetHandler(h Handler)                           { p.tr.SetHandler(h) }
func (p plainTransport) Close() error                                   { return p.tr.Close() }

// TestUDPSplitChunksCountsExtraFragments pins the accounting contract:
// a message split into n datagrams adds n-1, singles add nothing.
func TestUDPSplitChunksCountsExtraFragments(t *testing.T) {
	a := newUDP(t, "a", WithMaxDatagram(2048))
	b := newUDP(t, "b")
	b.SetHandler(func(*gossip.Message) {})
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())

	single := &gossip.Message{From: "a"}
	if err := a.Send("b", single); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.SplitChunks != 0 {
		t.Fatalf("single-datagram send counted as split: %+v", st)
	}

	big := sampleMessage()
	for i := 0; i < 60; i++ {
		big.Events = append(big.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "a", Seq: uint64(100 + i)},
			Payload: make([]byte, 200),
		})
	}
	chunks, err := a.codec.EncodeChunks(big, a.maxDg)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("test message did not split (%d chunks)", len(chunks))
	}
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Stats().SplitChunks, uint64(len(chunks)-1); got != want {
		t.Fatalf("SplitChunks = %d, want %d (extra fragments only)", got, want)
	}
}

// TestUDPSplitChunksSkipsLossDropped pins the other half of the
// contract: fragments dropped by injected loss never count as split.
func TestUDPSplitChunksSkipsLossDropped(t *testing.T) {
	a := newUDP(t, "a", WithMaxDatagram(2048), WithUDPSendLoss(1.0, 7))
	a.Start()
	if err := a.Register("b", "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	big := sampleMessage()
	for i := 0; i < 60; i++ {
		big.Events = append(big.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "a", Seq: uint64(100 + i)},
			Payload: make([]byte, 200),
		})
	}
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.LossDropped == 0 {
		t.Fatalf("full loss dropped nothing: %+v", st)
	}
	if st.SplitChunks != 0 || st.Sent != 0 {
		t.Fatalf("loss-dropped fragments counted: %+v", st)
	}
}

// failingConn injects persistent read errors without ever reporting
// net.ErrClosed, the regression shape for the read-loop spin bug.
type failingConn struct {
	closed atomic.Bool
	reads  atomic.Uint64
}

func (c *failingConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	c.reads.Add(1)
	if c.closed.Load() {
		return 0, netip.AddrPort{}, net.ErrClosed
	}
	return 0, netip.AddrPort{}, errors.New("injected read failure")
}

func (c *failingConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return len(b), nil
}

func (c *failingConn) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
}

func (c *failingConn) Close() error {
	c.closed.Store(true)
	return nil
}

func TestUDPReadLoopBacksOffOnPersistentErrors(t *testing.T) {
	conn := &failingConn{}
	tr, err := newUDPTransport("a", conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	reads := conn.reads.Load()
	// A spinning loop would take millions of reads in 150ms; the
	// 1ms→100ms exponential backoff allows only a handful.
	if reads > 60 {
		t.Fatalf("read loop spun: %d reads in 150ms", reads)
	}
	if errs := tr.Stats().ReadErrors; errs < 2 {
		t.Fatalf("ReadErrors = %d, want at least 2", errs)
	}
	start := time.Now()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close blocked %v behind the backoff", d)
	}
}

// TestUDPSlowHandlerKeepsSocketDraining proves the tentpole receive
// property: with the handler wedged, the read loop keeps pulling
// datagrams off the socket and the bounded queue absorbs or counts the
// overflow — no deadlock, no silent kernel-buffer loss.
func TestUDPSlowHandlerKeepsSocketDraining(t *testing.T) {
	b := newUDP(t, "b", withUDPRecvQueue(2))
	release := make(chan struct{})
	var handled atomic.Uint64
	b.SetHandler(func(*gossip.Message) {
		<-release
		handled.Add(1)
	})
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	a.Register("b", b.Addr().String())

	const sends = 40
	msg := &gossip.Message{From: "a"}
	for i := 0; i < sends; i++ {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// The handler is stuck on the first datagram, yet the socket must
	// keep draining: most datagrams are received, and everything beyond
	// the queue depth is counted as dropped.
	waitFor(t, "read loop to drain the socket", func() bool {
		st := b.Stats()
		return st.Received >= sends*3/4 && st.RecvQueueDrops >= 1
	})
	close(release)
	waitFor(t, "queued messages to dispatch", func() bool {
		// 1 wedged + queue depth 2 eventually dispatch once released.
		return handled.Load() >= 3
	})
	st := b.Stats()
	if st.Received < st.RecvQueueDrops {
		t.Fatalf("inconsistent stats %+v", st)
	}
}

// TestUDPCloseDiscardsQueuedBacklog pins the shutdown contract: Close
// must not push a backlogged dispatch queue through a slow handler —
// the backlog is discarded and counted, and only the in-flight handler
// call is waited for.
func TestUDPCloseDiscardsQueuedBacklog(t *testing.T) {
	b := newUDP(t, "b", withUDPRecvQueue(16))
	var handled atomic.Uint64
	b.SetHandler(func(*gossip.Message) {
		handled.Add(1)
		time.Sleep(200 * time.Millisecond)
	})
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	a.Register("b", b.Addr().String())
	msg := &gossip.Message{From: "a"}
	for i := 0; i < 12; i++ {
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, "datagrams to queue", func() bool { return b.Stats().Received >= 10 })
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Draining ~10 queued datagrams through the 200ms handler would
	// take ~2s; discarding must finish within one in-flight call.
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v, backlog was dispatched instead of discarded", d)
	}
	if got := handled.Load(); got > 2 {
		t.Fatalf("%d handler calls ran during shutdown", got)
	}
	if st := b.Stats(); st.RecvQueueDrops == 0 {
		t.Fatalf("discarded backlog not counted: %+v", st)
	}
}

func TestUDPRecvQueueOptionValidation(t *testing.T) {
	if _, err := NewUDPTransport("a", "127.0.0.1:0", withUDPRecvQueue(0)); err == nil {
		t.Fatal("zero recv queue depth accepted")
	}
}

// TestUDPConcurrentSendRegisterClose exercises the wire path under the
// race detector: sends, fanout sends, registrations and Close racing.
func TestUDPConcurrentSendRegisterClose(t *testing.T) {
	a := newUDP(t, "a")
	b := newUDP(t, "b")
	b.SetHandler(func(*gossip.Message) {})
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())

	msg := sampleMessage()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Send("b", msg)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.SendMany([]gossip.NodeID{"b", "ghost"}, msg)
				}
			}
		}()
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Register(gossip.NodeID(fmt.Sprintf("peer-%d", i)), b.Addr().String())
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}
