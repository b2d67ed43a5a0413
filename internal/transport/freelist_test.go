package transport

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

// TestTransportScratchSurvivesGC: the scratch a member's traffic runs
// through — the endpoint's send buffers and receive envelopes, the
// codec's compressor output and the compressor's deflaters — sits on
// free lists its owners hold, which a garbage collection does not
// empty. After two collections, a flate-compressed SendMany and the
// borrowed receive of what it sent, released, allocate nothing: no
// ~650 KB deflater, no 64 KiB read buffer, no regrown send buffer. A
// second case checks the other bound: what grew past the size cap is
// not taken back.
func TestTransportScratchSurvivesGC(t *testing.T) {
	t.Run("one round after two collections", func(t *testing.T) {
		tx, err := NewUDPTransport("tx", "127.0.0.1:0", WithUDPCompression(NewFlateCompressor()))
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Close()
		rx, err := NewUDPTransport("rx", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		if err := tx.Register("rx", rx.Addr().String()); err != nil {
			t.Fatal(err)
		}
		// The handler hands the lease over through an atomic the test
		// polls: a goroutine blocking on a channel takes a sudog, and a
		// collection empties the runtime's cache of those.
		var got atomic.Pointer[Inbound]
		rx.SetInboundHandler(func(in *Inbound) { got.Store(in) })
		if err := rx.Start(); err != nil {
			t.Fatal(err)
		}
		msg := fanoutMessage()
		targets := []gossip.NodeID{"rx"}
		var compressed bool
		round := func() {
			if _, err := tx.SendMany(targets, msg); err != nil {
				t.Fatal(err)
			}
			in := got.Swap(nil)
			for ; in == nil; in = got.Swap(nil) { // loopback does not drop; a lost round hangs the test
				runtime.Gosched()
			}
			compressed = len(in.scratch) > 0 && len(in.Message().Events) == len(msg.Events)
			in.Release()
		}
		for range 20 {
			round()
		}
		if !compressed {
			t.Fatal("the round did not arrive as a compressed section; the deflater is not exercised")
		}
		runtime.GC()
		runtime.GC()
		// Collect first and count with the collector off: the end of a
		// cycle wakes the unique package's map cleanup, which allocates
		// on a goroutine of its own.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		time.Sleep(20 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("after two collections a compressed send and a borrowed receive allocate %d times (%d bytes), want 0",
				n, after.TotalAlloc-before.TotalAlloc)
		}
	})

	t.Run("over the put-back cap is not retained", func(t *testing.T) {
		c := DefaultCodec()
		c.Compression = NewFlateCompressor()
		if _, err := c.Encode(textRound(22, 200)); err != nil {
			t.Fatal(err)
		}
		if n := c.sections.idleLen(); n != 1 {
			t.Fatalf("a compressed encode leaves %d idle section buffers, want 1", n)
		}
		// 200 KiB of noise: the compressor's output outgrows the cap.
		rng := rand.New(rand.NewPCG(5, 5))
		big := &gossip.Message{From: "big"}
		for i := range 50 {
			p := make([]byte, 4096)
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
			big.AppendEvent(gossip.Event{ID: gossip.EventID{Origin: "big", Seq: uint64(i)}, Payload: p})
		}
		if _, err := c.Encode(big); err != nil {
			t.Fatal(err)
		}
		if n := c.sections.idleLen(); n != 0 {
			t.Fatalf("a %d-byte section's compressor output was taken back (%d idle), want it left to the collector",
				c.EncodedSize(big), n)
		}

		rx, err := NewUDPTransport("rx", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rx.Close()
		ok := rx.leaseInbound()
		ok.n = copy(ok.buf, mustEncode(t, DefaultCodec(), textRound(22, 200)))
		rx.dispatch(ok) // no handler: decoded, counted and released
		if n := rx.scratch.inbounds.idleLen(); n != 1 {
			t.Fatalf("a released envelope within the cap leaves %d idle, want 1", n)
		}
		// A frame that inflates to 32 MiB: its decode state is over
		// maxPooledInbound when it is released.
		raw := make([]byte, 32<<20)
		comp, err := NewFlateCompressor().Compress(nil, raw)
		if err != nil {
			t.Fatal(err)
		}
		bomb := rx.leaseInbound()
		bomb.n = copy(bomb.buf, compressedFrame(t, uint64(len(raw)), uint64(len(comp)), comp))
		rx.dispatch(bomb)
		if bomb.retained() <= maxPooledInbound {
			t.Fatalf("the bomb left %d bytes of decode state; it no longer exercises the cap", bomb.retained())
		}
		if n := rx.scratch.inbounds.idleLen(); n != 0 {
			t.Fatalf("an envelope holding %d bytes of decode state was taken back (%d idle)", bomb.retained(), n)
		}
	})
}

// idleLen reports how many items the list holds.
func (l *freeList[T]) idleLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}

func mustEncode(tb testing.TB, c Codec, m *gossip.Message) []byte {
	tb.Helper()
	b, err := c.Encode(m)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
