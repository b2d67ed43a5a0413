package transport

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Compression layer (wire v5): the event section — the bulk of a round
// message — may be compressed before framing. The codec negotiates per
// frame: the flagCompress bit plus a one-byte compressor id say how the
// section bytes were produced, so a v5 decoder needs only the matching
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

// flateCompressor implements Compressor with stdlib DEFLATE. Both
// directions are pooled: flate.NewWriter allocates ~600 KiB of match
// tables, and flate.NewReader a 32 KiB window plus its Huffman tables —
// per received datagram, that was most of the bytes a compressed group
// allocated.
type flateCompressor struct {
	writers sync.Pool
	readers sync.Pool
}

// flateReader is one pooled inflater with the byte source it reads
// (bytes.Reader is an io.ByteReader, so flate adds no bufio layer).
type flateReader struct {
	src   bytes.Reader
	fr    io.ReadCloser
	probe [1]byte // end-of-stream read target; a local would escape through the interface call
}

// reader returns a pooled inflater reset onto src.
func (f *flateCompressor) reader(src []byte) *flateReader {
	r, _ := f.readers.Get().(*flateReader)
	if r == nil {
		r = &flateReader{}
		r.fr = flate.NewReader(&r.src)
	}
	r.src.Reset(src)
	// Reset cannot fail for the stdlib inflater; every flate reader is a
	// Resetter by the package's contract.
	_ = r.fr.(flate.Resetter).Reset(&r.src, nil)
	return r
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
	sw := &sliceWriter{buf: dst}
	fw, _ := f.writers.Get().(*flate.Writer)
	if fw == nil {
		var err error
		fw, err = flate.NewWriter(sw, flate.DefaultCompression)
		if err != nil {
			return dst, err
		}
	} else {
		fw.Reset(sw)
	}
	_, werr := fw.Write(src)
	cerr := fw.Close()
	f.writers.Put(fw)
	if werr != nil {
		return dst, werr
	}
	if cerr != nil {
		return dst, cerr
	}
	return sw.buf, nil
}

func (f *flateCompressor) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	r := f.reader(src)
	defer f.readers.Put(r)
	base := len(dst)
	// Extends in place when dst has the capacity (the compiler elides
	// the temporary).
	dst = append(dst, make([]byte, rawLen)...)
	if _, err := io.ReadFull(r.fr, dst[base:]); err != nil {
		return dst[:base], fmt.Errorf("transport: corrupt compressed section: %w", err)
	}
	// The stream must end exactly at rawLen: a longer stream means the
	// advertised raw length lied.
	if n, err := r.fr.Read(r.probe[:]); n != 0 || err != io.EOF {
		return dst[:base], fmt.Errorf("transport: compressed section longer than advertised %d bytes", rawLen)
	}
	return dst, nil
}

// decompressors is the decode-side registry: every compressor a v5
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
