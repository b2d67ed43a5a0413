package transport

import (
	"compress/flate"
	"fmt"
	"runtime"
	"slices"
)

// Compression layer: the event section — the bulk of a round
// message — may be compressed before framing. The codec negotiates per
// frame: the flagCompress bit plus a one-byte compressor id say how the
// section bytes were produced, so a decoder needs only the matching
// Compressor registered, not the same configuration. Control headers
// are never compressed; they are small and must stay parseable even
// when a payload codec is unavailable.

// Compressor compresses and decompresses event-section bytes.
//
// Compress appends the compressed form of src to dst and returns the
// extended slice. Decompress appends exactly rawLen decompressed bytes
// to dst, erroring if src does not decode to exactly that length.
// Implementations must be safe for concurrent use.
type Compressor interface {
	// ID is the one-byte wire identifier (0 is reserved for "stored",
	// i.e. no compression).
	ID() byte
	// Name is the config-facing name ("flate").
	Name() string
	Compress(dst, src []byte) ([]byte, error)
	Decompress(dst, src []byte, rawLen int) ([]byte, error)
}

// Wire compressor ids.
const (
	compressorNone  byte = 0
	compressorFlate byte = 1
)

// flateCompressor implements Compressor with DEFLATE: compress/flate's
// writer at its default level, and this package's own one-shot decoder
// (inflate.go). The compressor owns a bounded free list of its
// deflaters — flate.NewWriter allocates ~650 KB of match tables — each
// kept together with the io.Writer it writes through, so a Compress
// call allocates nothing once as many writers exist as compress at
// once. A garbage collection does not empty the list; it keeps at most
// twice GOMAXPROCS idle writers (≈650 KB each) — a goroutine can be
// descheduled in the middle of a Compress, so more calls than
// processors overlap at times — and a writer handed back beyond that
// is left to the collector. Decompress keeps no state at all: its
// tables live on the caller's stack for the length of the call.
type flateCompressor struct {
	writers *freeList[*flateWriter]
}

// flateWriter is one deflater with the append target it writes to; the
// target lives beside the writer because flate holds it as an
// io.Writer, which a stack value would escape through.
type flateWriter struct {
	out sliceWriter
	fw  *flate.Writer
}

// NewFlateCompressor returns the built-in DEFLATE compressor (wire id
// 1). One instance is shared safely by any number of codecs, which
// all reuse the deflaters on its free list: owned by the compressor,
// so no garbage collection empties it, and bounded at twice GOMAXPROCS
// idle deflaters of ≈650 KB.
func NewFlateCompressor() Compressor {
	return &flateCompressor{writers: newFreeList[*flateWriter](2 * runtime.GOMAXPROCS(0))}
}

func (f *flateCompressor) ID() byte     { return compressorFlate }
func (f *flateCompressor) Name() string { return "flate" }

// sliceWriter adapts an append target to io.Writer for flate.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (f *flateCompressor) Compress(dst, src []byte) ([]byte, error) {
	w, ok := f.writers.get()
	if !ok {
		w = &flateWriter{out: sliceWriter{buf: dst}}
		// NewWriter fails only for a level out of range.
		w.fw, _ = flate.NewWriter(&w.out, flate.DefaultCompression)
	} else {
		w.out.buf = dst
		w.fw.Reset(&w.out)
	}
	_, werr := w.fw.Write(src)
	cerr := w.fw.Close()
	out := w.out.buf
	w.out.buf = nil
	f.writers.put(w)
	if werr != nil {
		return dst, werr
	}
	if cerr != nil {
		return dst, cerr
	}
	return out, nil
}

func (f *flateCompressor) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, rawLen)[:base+rawLen]
	var d inflater
	if err := d.inflate(dst[base:], src); err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// decompressors is the decode-side registry: every compressor the
// decoder accepts, keyed by wire id. Decoding is independent of the
// codec's own Compression setting — a node configured without
// compression still decodes compressed frames from peers that use it.
var decompressors = map[byte]Compressor{
	compressorFlate: NewFlateCompressor(),
}

// CompressorByName resolves a config-facing compression name. The empty
// string and "none" mean no compression (nil). Unknown names error.
func CompressorByName(name string) (Compressor, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "flate":
		return NewFlateCompressor(), nil
	default:
		return nil, fmt.Errorf("transport: unknown compression %q (have \"none\", \"flate\")", name)
	}
}
