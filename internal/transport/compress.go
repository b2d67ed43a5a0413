package transport

import (
	"compress/flate"
	"fmt"
	"slices"
	"sync"
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
// (inflate.go). Writers are pooled — flate.NewWriter allocates ~600 KiB
// of match tables — together with the io.Writer they write through, so
// a Compress call allocates nothing. Decompress keeps no state at all:
// its tables live on the caller's stack for the length of the call.
type flateCompressor struct {
	writers sync.Pool // of *flateWriter
}

// flateWriter is one pooled deflater with the append target it writes
// to; the target lives beside the writer because flate holds it as an
// io.Writer, which a stack value would escape through.
type flateWriter struct {
	out sliceWriter
	fw  *flate.Writer
}

// NewFlateCompressor returns the built-in DEFLATE compressor (wire id
// 1). One instance is shared safely by any number of codecs.
func NewFlateCompressor() Compressor {
	return &flateCompressor{}
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
	w, _ := f.writers.Get().(*flateWriter)
	if w == nil {
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
	f.writers.Put(w)
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
