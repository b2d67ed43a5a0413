package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// DefaultMaxDatagram bounds UDP datagram sizes. Gossip messages above
// it are split into standalone chunks (see Codec.EncodeChunks).
const DefaultMaxDatagram = 60 * 1024

// DefaultRecvQueue is the depth of the queue between the socket read
// loop and the handler dispatch goroutine. Overflow is dropped and
// counted in RecvQueueDrops — gossip tolerates loss by design, and a
// slow handler must never stall the socket into kernel-buffer drops
// that no counter sees.
const DefaultRecvQueue = 1024

// Read-error backoff bounds: a persistent non-ErrClosed read failure
// backs off exponentially between these instead of spinning the CPU.
const (
	initialReadBackoff = time.Millisecond
	maxReadBackoff     = 100 * time.Millisecond
)

// UDPStats counts UDP transport activity.
type UDPStats struct {
	// Sent and SentBytes count datagrams written to the socket and
	// their bytes.
	Sent      uint64
	SentBytes uint64
	// SplitChunks counts continuation fragments actually written to the
	// wire: a message sent in n datagrams adds n-1, single-datagram
	// sends add nothing, and fragments dropped by injected loss are not
	// counted.
	SplitChunks uint64
	// Received and RecvBytes count datagrams read from the socket and
	// their bytes.
	Received  uint64
	RecvBytes uint64
	// DecodeErrors counts datagrams the wire codec rejected (malformed,
	// truncated, over a codec limit) and dropped.
	DecodeErrors uint64
	// NoHandler counts datagrams dropped because no handler was
	// installed.
	NoHandler uint64
	// SendErrors counts failed sends: unknown peers, encode and socket
	// write errors.
	SendErrors  uint64
	LossDropped uint64 // datagrams dropped by injected send loss
	// ReadErrors counts transient socket read failures (the read loop
	// backs off and retries; net.ErrClosed terminates it instead).
	ReadErrors uint64
	// RecvQueueDrops counts inbound datagrams discarded undelivered:
	// either the dispatch queue was full (the consumer fell behind the
	// wire) or they were still queued when Close ran.
	RecvQueueDrops uint64
	// PreCompressionBytes and PostCompressionBytes measure the event
	// sections of encoded messages before and after the configured
	// payload compression (wire v5). Equal counters mean compression is
	// off or never paid for itself.
	PreCompressionBytes  uint64
	PostCompressionBytes uint64
}

// udpConn is the socket surface the transport uses, satisfied by
// *net.UDPConn; tests inject failing implementations. Reads go through
// the AddrPort form: behind an interface ReadFromUDP heap-allocates a
// *net.UDPAddr per datagram for a source address the loop discards.
type udpConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
	LocalAddr() net.Addr
	Close() error
}

// sendBufPool recycles encode buffers across sends: with AppendEncode
// the steady-state hot path allocates nothing once the pooled buffers
// have grown to the working message size.
var sendBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// UDPTransport carries gossip messages as UDP datagrams — the role the
// Ethernet LAN plays in the paper's prototype experiments. Peers are
// registered explicitly in an address book (the examples and cmd tools
// wire this from configuration).
//
// Receives are asynchronous: the read loop only moves datagrams into a
// bounded dispatch queue, a separate goroutine decodes and runs the
// handler, and overflow is counted in RecvQueueDrops rather than
// stalling the socket. Each datagram is read into a pooled Inbound;
// with an InboundHandler installed the message is decoded in place and
// the envelope travels on to the consumer, otherwise the Handler gets
// an owning Decode and the envelope is recycled at once.
type UDPTransport struct {
	id    gossip.NodeID
	conn  udpConn
	codec Codec
	maxDg int
	ids   *idTable // touched by the dispatch goroutine only

	mu      sync.RWMutex
	book    map[gossip.NodeID]*net.UDPAddr
	handler Handler
	inbound InboundHandler

	lossMu   sync.Mutex
	lossRate float64
	lossRNG  *rand.Rand

	// links, when set, receives per-peer wire telemetry (bytes and
	// messages by peer, fan-out sends, drops). An atomic pointer so the
	// table can be installed after Start without racing the loops.
	links atomic.Pointer[observe.PeerTable]

	recvQ   chan *Inbound
	started atomic.Bool
	closed  atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	sent           atomic.Uint64
	sentBytes      atomic.Uint64
	splitChunks    atomic.Uint64
	received       atomic.Uint64
	recvBytes      atomic.Uint64
	decodeErrors   atomic.Uint64
	noHandler      atomic.Uint64
	sendErrors     atomic.Uint64
	lossDropped    atomic.Uint64
	readErrors     atomic.Uint64
	recvQueueDrops atomic.Uint64
}

// UDPOption configures a UDPTransport.
type UDPOption func(*UDPTransport) error

// WithUDPCodec overrides the wire codec limits.
func WithUDPCodec(c Codec) UDPOption {
	return func(t *UDPTransport) error {
		t.codec = c
		return nil
	}
}

// WithUDPSendLoss drops outgoing datagrams with probability p — iid
// loss injection for demos and tests on loopback, where the real
// network never drops. Dropped datagrams are counted in LossDropped.
func WithUDPSendLoss(p float64, seed uint64) UDPOption {
	return func(t *UDPTransport) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("transport: loss probability %v out of [0,1]", p)
		}
		t.lossRate = p
		t.lossRNG = rand.New(rand.NewPCG(seed, seed^0x10551055))
		return nil
	}
}

// WithUDPPeerTable installs the per-peer telemetry table at
// construction; see SetLinks.
func WithUDPPeerTable(links *observe.PeerTable) UDPOption {
	return func(t *UDPTransport) error {
		t.links.Store(links)
		return nil
	}
}

// WithMaxDatagram overrides the datagram split threshold.
func WithMaxDatagram(n int) UDPOption {
	return func(t *UDPTransport) error {
		if n < 512 {
			return fmt.Errorf("transport: max datagram %d too small", n)
		}
		t.maxDg = n
		return nil
	}
}

// WithUDPCompression installs a payload compressor on the wire codec:
// every encoded message's event section is run through it (stored
// uncompressed when compression would not shrink it). nil disables
// compression. Decoding is unaffected — compressed frames from peers
// are accepted either way.
func WithUDPCompression(comp Compressor) UDPOption {
	return func(t *UDPTransport) error {
		t.codec.Compression = comp
		return nil
	}
}

// WithUDPRecvQueue overrides the dispatch queue depth
// (DefaultRecvQueue). Deeper queues absorb longer handler stalls;
// overflow is dropped and counted either way.
func WithUDPRecvQueue(depth int) UDPOption {
	return func(t *UDPTransport) error {
		if depth < 1 {
			return fmt.Errorf("transport: recv queue depth %d must be at least 1", depth)
		}
		t.recvQ = make(chan *Inbound, depth)
		return nil
	}
}

// NewUDPTransport binds a UDP socket at bind (e.g. "127.0.0.1:0").
// Call SetHandler then Start before expecting traffic.
func NewUDPTransport(id gossip.NodeID, bind string, opts ...UDPOption) (*UDPTransport, error) {
	if id == "" {
		return nil, fmt.Errorf("transport: node id must not be empty")
	}
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	return newUDPTransport(id, conn, opts...)
}

// newUDPTransport assembles a transport around an existing socket;
// tests inject failing conns here.
func newUDPTransport(id gossip.NodeID, conn udpConn, opts ...UDPOption) (*UDPTransport, error) {
	t := &UDPTransport{
		id:     id,
		conn:   conn,
		codec:  DefaultCodec(),
		maxDg:  DefaultMaxDatagram,
		ids:    newIDTable(),
		book:   make(map[gossip.NodeID]*net.UDPAddr),
		stopCh: make(chan struct{}),
	}
	for _, opt := range opts {
		if err := opt(t); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if t.recvQ == nil {
		t.recvQ = make(chan *Inbound, DefaultRecvQueue)
	}
	// Give the codec a stats sink (unless an override codec brought its
	// own) so the pre-/post-compression byte counters show up in Stats.
	if t.codec.Stats == nil {
		t.codec.Stats = &CodecStats{}
	}
	return t, nil
}

// LocalID returns the transport's node id.
func (t *UDPTransport) LocalID() gossip.NodeID { return t.id }

// Addr returns the bound local address.
func (t *UDPTransport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Register maps a peer id to its UDP address.
func (t *UDPTransport) Register(id gossip.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	t.mu.Lock()
	t.book[id] = ua
	t.mu.Unlock()
	return nil
}

// SetLinks installs (or replaces) the per-peer telemetry table: every
// datagram written afterwards, and every one dispatched from a peer in
// the address book, is attributed to its peer's counters. nil detaches. Safe to call while the transport is running;
// the hot path pays one atomic load and a read-locked map hit.
func (t *UDPTransport) SetLinks(links *observe.PeerTable) { t.links.Store(links) }

// peerStats resolves the telemetry row for a peer, nil when telemetry
// is off.
func (t *UDPTransport) peerStats(id gossip.NodeID) *observe.PeerStats {
	links := t.links.Load()
	if links == nil {
		return nil
	}
	return links.Get(string(id))
}

// SetHandler installs the receive callback. The handler owns every
// message it is given and may retain it.
func (t *UDPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// SetInboundHandler installs the borrowed-receive callback, which from
// then on is called in place of the SetHandler one; see
// InboundReceiver.
func (t *UDPTransport) SetInboundHandler(h InboundHandler) {
	t.mu.Lock()
	t.inbound = h
	t.mu.Unlock()
}

// Start launches the read and dispatch loops. It must be called exactly
// once.
func (t *UDPTransport) Start() error {
	if !t.started.CompareAndSwap(false, true) {
		return fmt.Errorf("transport: already started")
	}
	t.wg.Add(2)
	go t.readLoop()
	go t.dispatchLoop()
	return nil
}

// readLoop moves datagrams from the socket into the dispatch queue. It
// never blocks on the consumer: a full queue drops the datagram
// (counted), so kernel receive buffers keep draining no matter how slow
// the handler is.
func (t *UDPTransport) readLoop() {
	defer t.wg.Done()
	defer close(t.recvQ)
	backoff := initialReadBackoff
	for {
		in := leaseInbound()
		n, _, err := t.conn.ReadFromUDPAddrPort(in.buf)
		if err != nil {
			in.Release()
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failure: back off instead of spinning. The stop
			// channel cuts the wait short on Close.
			t.readErrors.Add(1)
			select {
			case <-t.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxReadBackoff {
				backoff = maxReadBackoff
			}
			continue
		}
		backoff = initialReadBackoff
		t.received.Add(1)
		t.recvBytes.Add(uint64(n))
		in.n = n
		select {
		case t.recvQ <- in:
		default:
			t.recvQueueDrops.Add(1)
			in.Release()
		}
	}
}

// dispatchLoop decodes queued datagrams and runs the handler, off the
// socket goroutine. Once Close is underway the backlog is discarded
// (counted in RecvQueueDrops) rather than dispatched — a slow handler
// must not stretch shutdown by backlog × handler latency, nor keep
// receiving messages into a node being torn down.
func (t *UDPTransport) dispatchLoop() {
	defer t.wg.Done()
	for in := range t.recvQ {
		if t.closed.Load() {
			t.recvQueueDrops.Add(1)
			in.Release()
			continue
		}
		t.dispatch(in)
	}
}

// dispatch decodes one datagram and hands it to the consumer. With an
// InboundHandler the message is decoded in place and the lease passes to
// the handler; otherwise Decode copies everything the Handler's message
// keeps, and the envelope is recycled before the handler runs.
//
// Inbound traffic is attributed to a telemetry row only when the sender
// is in the address book: sender ids are unauthenticated and rows are
// never evicted, so datagrams with invented ids would otherwise fill the
// table and leave every peer added later without a row.
func (t *UDPTransport) dispatch(in *Inbound) {
	data := in.buf[:in.n]
	var msg *gossip.Message
	var err error
	t.mu.RLock()
	h, bh := t.handler, t.inbound
	if bh != nil {
		msg, err = in.decode(t.codec, t.ids, data)
	} else {
		msg, err = t.codec.Decode(data)
	}
	known := err == nil && t.book[msg.From] != nil
	t.mu.RUnlock()
	if err != nil {
		t.decodeErrors.Add(1)
		in.Release()
		return
	}
	if known {
		if ps := t.peerStats(msg.From); ps != nil {
			ps.MessagesReceived.Inc()
			ps.BytesReceived.Add(uint64(len(data)))
		}
	}
	switch {
	case bh != nil:
		bh(in)
	case h != nil:
		in.Release()
		h(msg)
	default:
		t.noHandler.Add(1)
		in.Release()
	}
}

// Send encodes and transmits msg to one peer, splitting into multiple
// datagrams when it exceeds the datagram bound. Every call pays one
// full encode; fanout traffic should go through SendMany, which
// serializes once for all targets from a pooled buffer.
func (t *UDPTransport) Send(to gossip.NodeID, msg *gossip.Message) error {
	t.mu.RLock()
	addr, ok := t.book[to]
	t.mu.RUnlock()
	if !ok {
		t.sendErrors.Add(1)
		if ps := t.peerStats(to); ps != nil {
			ps.SendErrors.Inc()
		}
		return fmt.Errorf("transport: unknown peer %s", to)
	}
	chunks, err := t.codec.EncodeChunks(msg, t.maxDg)
	if err != nil {
		t.sendErrors.Add(1)
		return err
	}
	return t.writeChunks(to, addr, chunks)
}

// SendMany transmits msg to every target, encoding once: the per-round
// gossip message is read-only, so one Codec pass serves all F fanout
// targets and the dissemination cost scales with message size, not
// fanout. Targets are attempted independently (best effort); SendMany
// returns the number of targets fully sent and the first error.
func (t *UDPTransport) SendMany(targets []gossip.NodeID, msg *gossip.Message) (int, error) {
	if len(targets) == 0 {
		return 0, nil
	}
	var chunks [][]byte
	var single []byte
	if t.codec.EncodedSize(msg) > t.maxDg {
		var err error
		chunks, err = t.codec.EncodeChunks(msg, t.maxDg)
		if err != nil {
			t.sendErrors.Add(uint64(len(targets)))
			return 0, err
		}
	} else {
		bp := sendBufPool.Get().(*[]byte)
		defer sendBufPool.Put(bp)
		buf, err := t.codec.AppendEncode((*bp)[:0], msg)
		if err != nil {
			t.sendErrors.Add(uint64(len(targets)))
			return 0, err
		}
		*bp = buf
		single = buf
	}
	sent := 0
	var first error
	for _, to := range targets {
		t.mu.RLock()
		addr, ok := t.book[to]
		t.mu.RUnlock()
		if !ok {
			t.sendErrors.Add(1)
			if ps := t.peerStats(to); ps != nil {
				ps.SendErrors.Inc()
			}
			if first == nil {
				first = fmt.Errorf("transport: unknown peer %s", to)
			}
			continue
		}
		var err error
		if single != nil {
			err = t.writeDatagram(to, addr, single, false)
		} else {
			err = t.writeChunks(to, addr, chunks)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if ps := t.peerStats(to); ps != nil {
			ps.FanoutSends.Inc()
		}
		sent++
	}
	return sent, first
}

// writeChunks transmits a split message, one datagram per chunk;
// fragments after the first count toward SplitChunks.
func (t *UDPTransport) writeChunks(to gossip.NodeID, addr *net.UDPAddr, chunks [][]byte) error {
	for i, chunk := range chunks {
		if err := t.writeDatagram(to, addr, chunk, i > 0); err != nil {
			return err
		}
	}
	return nil
}

// writeDatagram sends one already-encoded datagram, applying loss
// injection and the wire counters. fragment marks a continuation chunk
// of a split message (counted in SplitChunks when actually written).
func (t *UDPTransport) writeDatagram(to gossip.NodeID, addr *net.UDPAddr, chunk []byte, fragment bool) error {
	ps := t.peerStats(to)
	if t.dropForLoss() {
		t.lossDropped.Add(1)
		if ps != nil {
			ps.Drops.Inc()
		}
		return nil
	}
	n, err := t.conn.WriteToUDP(chunk, addr)
	if err != nil {
		t.sendErrors.Add(1)
		if ps != nil {
			ps.SendErrors.Inc()
		}
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	t.sent.Add(1)
	t.sentBytes.Add(uint64(n))
	if ps != nil {
		ps.MessagesSent.Inc()
		ps.BytesSent.Add(uint64(n))
	}
	if fragment {
		t.splitChunks.Add(1)
	}
	return nil
}

// dropForLoss rolls the injected-loss dice (false when disabled).
func (t *UDPTransport) dropForLoss() bool {
	if t.lossRate <= 0 {
		return false
	}
	t.lossMu.Lock()
	defer t.lossMu.Unlock()
	return t.lossRNG.Float64() < t.lossRate
}

// Stats returns a snapshot of the counters.
func (t *UDPTransport) Stats() UDPStats {
	s := UDPStats{
		Sent:           t.sent.Load(),
		SentBytes:      t.sentBytes.Load(),
		SplitChunks:    t.splitChunks.Load(),
		Received:       t.received.Load(),
		RecvBytes:      t.recvBytes.Load(),
		DecodeErrors:   t.decodeErrors.Load(),
		NoHandler:      t.noHandler.Load(),
		SendErrors:     t.sendErrors.Load(),
		LossDropped:    t.lossDropped.Load(),
		ReadErrors:     t.readErrors.Load(),
		RecvQueueDrops: t.recvQueueDrops.Load(),
	}
	if t.codec.Stats != nil {
		s.PreCompressionBytes = t.codec.Stats.PreCompressionBytes.Load()
		s.PostCompressionBytes = t.codec.Stats.PostCompressionBytes.Load()
	}
	return s
}

// Close stops the read and dispatch loops and releases the socket.
// Datagrams still queued for dispatch are discarded (counted in
// RecvQueueDrops); only a handler call already in flight is waited for.
func (t *UDPTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stopCh)
	err := t.conn.Close()
	t.wg.Wait()
	return err
}

// ScratchSafe marks the transport as not retaining sent messages: Send
// and SendMany encode synchronously before returning.
func (t *UDPTransport) ScratchSafe() {}

var (
	_ Transport       = (*UDPTransport)(nil)
	_ ManySender      = (*UDPTransport)(nil)
	_ ScratchSafe     = (*UDPTransport)(nil)
	_ InboundReceiver = (*UDPTransport)(nil)
)
