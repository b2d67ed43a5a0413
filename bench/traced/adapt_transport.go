package traced

import (
	"sync"

	"adaptivegossip/internal/transport"
)

type (
	// endpoint is one member's real UDP socket transport.
	endpoint = transport.UDPTransport
	// groupSender is the runtime's per-round send path: it groups a
	// round's outgoings and hands each group to SendMany.
	groupSender = transport.GroupSender
	codec       = transport.Codec
)

// timedCompressor decorates the wire compressor, placed in the codec
// of every traced endpoint: a span around each Compress, byte counts
// for the ratio, and the last frame kept so the driver can time its
// decompression (decoding picks its decompressor from the transport
// package's registry, which a decorator cannot reach).
type timedCompressor struct {
	inner transport.Compressor
	tr    *Tracer
	round *uint64

	rawBytes  int64
	compBytes int64
	lastComp  []byte
	lastRaw   int
	scratch   []byte
}

func newTimedCompressor(name string, tr *Tracer, round *uint64) (*timedCompressor, error) {
	inner, err := transport.CompressorByName(name)
	if err != nil || inner == nil {
		return nil, err
	}
	return &timedCompressor{inner: inner, tr: tr, round: round}, nil
}

func (c *timedCompressor) ID() byte     { return c.inner.ID() }
func (c *timedCompressor) Name() string { return c.inner.Name() }

func (c *timedCompressor) Compress(dst, src []byte) ([]byte, error) {
	id := c.tr.Begin("compress", *c.round)
	out, err := c.inner.Compress(dst, src)
	c.tr.End(id)
	if err == nil && id >= 0 {
		c.rawBytes += int64(len(src))
		c.compBytes += int64(len(out) - len(dst))
		c.lastComp = append(c.lastComp[:0], out[len(dst):]...)
		c.lastRaw = len(src)
	}
	return out, err
}

func (c *timedCompressor) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	return c.inner.Decompress(dst, src, rawLen)
}

// shadowDecompress decompresses the frame Compress saw last, in a span.
func (c *timedCompressor) shadowDecompress() error {
	if c.lastRaw == 0 {
		return nil
	}
	id := c.tr.Begin("decompress", *c.round)
	out, err := c.inner.Decompress(c.scratch[:0], c.lastComp, c.lastRaw)
	c.tr.End(id)
	c.scratch = out
	return err
}

// newCodec returns the codec the endpoints and the shadow passes share.
func newCodec(comp *timedCompressor) codec {
	c := transport.DefaultCodec()
	if comp != nil {
		c.Compression = comp
	}
	return c
}

func newEndpoint(id nodeID, c codec) (*endpoint, error) {
	return transport.NewUDPTransport(id, "127.0.0.1:0", transport.WithUDPCodec(c))
}

// stubTransport is the benchmark-owned transport under the runner
// probe: it swallows what the node sends and lets the probe feed
// messages to the handler the runner installed.
type stubTransport struct {
	id      nodeID
	mu      sync.Mutex
	handler transport.Handler
}

func (s *stubTransport) LocalID() nodeID             { return s.id }
func (s *stubTransport) Send(nodeID, *message) error { return nil }
func (s *stubTransport) Close() error                { return nil }
func (s *stubTransport) ScratchSafe()                {}
func (s *stubTransport) SetHandler(h transport.Handler) {
	s.mu.Lock()
	s.handler = h
	s.mu.Unlock()
}

func (s *stubTransport) feed(m *message) {
	s.mu.Lock()
	h := s.handler
	s.mu.Unlock()
	h(m)
}
