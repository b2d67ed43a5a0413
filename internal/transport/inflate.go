package transport

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// One-shot DEFLATE (RFC 1951) decoder for compressed event sections.
//
// A member inflates every copy of an event it receives and keeps one, so
// this runs once per received datagram. The whole input and the exact
// output size are known up front (the section envelope carries rawLen),
// which is everything compress/flate's streaming reader cannot assume:
// there is no io.Reader, no 32 KiB window (back-references read the
// output itself), no per-block table allocation (the tables are fixed
// arrays inside inflater) and no state that outlives the call.
//
// What it accepts is exactly what compress/flate's reader accepts —
// FuzzInflate holds the two to the same verdict and the same bytes:
// Huffman codes must be complete, except that an unused code and a lone
// one-bit code are allowed (and fail when a missing code is read);
// literal/length symbols 286-287 and distance symbols 30-31 are corrupt;
// a distance may not reach before the start of the output; bytes after
// the final block are ignored.

const (
	maxCodeLen  = 15  // longest Huffman code DEFLATE allows
	fastBits    = 9   // codes this short decode with one table lookup
	numLitSyms  = 288 // literal/length alphabet of the fixed code
	numLitUsed  = 286 // literal/length symbols that mean something; a dynamic code lists no more
	numDistSyms = 32  // distance alphabet of the fixed code
	numDistUsed = 30  // distance symbols that mean something; a dynamic code lists no more
	numLenCodes = 29  // length symbols 257..285
	endOfBlock  = 256
)

// Inflate errors are fixed values: a corrupt datagram is an ordinary
// event on a lossy network and must not allocate.
var (
	errInflateCorrupt   = errors.New("transport: corrupt compressed section")
	errInflateTruncated = errors.New("transport: compressed section ends mid-stream")
	errInflateLong      = errors.New("transport: compressed section longer than advertised")
	errInflateShort     = errors.New("transport: compressed section shorter than advertised")
)

// Base value and extra-bit count of each length and distance symbol
// (RFC 1951 section 3.2.5).
var (
	lengthBase  = [numLenCodes]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [numLenCodes]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [numDistUsed]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [numDistUsed]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	// codeLengthOrder is the order in which a dynamic block header lists
	// the code lengths of the code-length alphabet.
	codeLengthOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffman decodes one canonical Huffman code. Codes of up to fastBits
// bits resolve through fast, indexed by the next fastBits input bits;
// longer ones (rare symbols by construction) walk count and symbol one
// bit at a time from where the fastBits-bit codes end.
type huffman struct {
	fast   [1 << fastBits]uint16  // symbol<<4 | code length; 0: no code this short starts with these bits
	count  [maxCodeLen + 1]uint16 // codes of each length
	symbol [numLitSyms]uint16     // symbols in code order
	// Where the walk resumes: the first code of fastBits+1 bits, and the
	// index in symbol of the first code longer than fastBits.
	longFirst, longIndex uint16
}

// build sets h to the canonical code with the given length per symbol
// (0: symbol unused). It writes everything decoding reads, so a reused h
// needs no clearing. It reports false for a code compress/flate rejects:
// over-subscribed, or incomplete other than an unused code or a single
// one-bit code.
func (h *huffman) build(lengths []uint8) bool {
	h.count = [maxCodeLen + 1]uint16{}
	for _, n := range lengths {
		if n != 0 { // most symbols are unused; counting them would serialise on count[0]
			h.count[n]++
		}
	}
	h.fast = [1 << fastBits]uint16{}

	var next, offs [maxCodeLen + 1]uint16 // first code, and first index in symbol, of each length
	left, used, code := 1, 0, 0
	for n := 1; n <= maxCodeLen; n++ {
		c := int(h.count[n])
		if left = left<<1 - c; left < 0 {
			return false
		}
		code = (code + int(h.count[n-1])) << 1
		next[n], offs[n] = uint16(code), uint16(used)
		used += c
		if n == fastBits {
			h.longFirst, h.longIndex = uint16(code+c)<<1, uint16(used)
		}
	}
	if left > 0 && used != 0 && !(used == 1 && h.count[1] == 1) {
		return false
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		h.symbol[offs[n]] = uint16(sym)
		offs[n]++
		if n > fastBits {
			continue
		}
		// Codes are packed most significant bit first into a stream read
		// least significant bit first: index by the reversed code.
		rev := int(bits.Reverse16(next[n]) >> (16 - n))
		next[n]++
		e, step := uint16(sym)<<4|uint16(n), 1<<n
		for i := rev; i < len(h.fast); i += step {
			h.fast[i] = e
		}
	}
	return true
}

// long decodes the symbol at the bottom of b when fast has no entry for
// it: a code longer than fastBits, or bits no code starts with (n == 0).
// Canonical codes of one length are consecutive numbers, so a code is
// found by comparing the bits read so far, as a number, with the first
// code of their length; no shorter code can match, or fast would have.
func (h *huffman) long(b uint64) (sym, n uint) {
	code := int(bits.Reverse16(uint16(b))>>(16-fastBits)) << 1
	b >>= fastBits
	first, index := int(h.longFirst), int(h.longIndex)
	for n := uint(fastBits + 1); n <= maxCodeLen; n++ {
		code |= int(b & 1)
		b >>= 1
		c := int(h.count[n])
		if code-c < first {
			return uint(h.symbol[index+code-first]), n
		}
		index += c
		first = (first + c) << 1
		code <<= 1
	}
	return 0, 0
}

// fixedLit and fixedDist are the codes of a fixed-Huffman block (RFC
// 1951 section 3.2.6). The distance code is 32 five-bit codes, of which
// the last two are never valid; built from 30 it would be incomplete.
var fixedLit, fixedDist = func() (lit, dist huffman) {
	var lengths [numLitSyms]uint8
	for i := range lengths {
		switch {
		case i < 144:
			lengths[i] = 8
		case i < 256:
			lengths[i] = 9
		case i < 280:
			lengths[i] = 7
		default:
			lengths[i] = 8
		}
	}
	var five [numDistSyms]uint8
	for i := range five {
		five[i] = 5
	}
	if !lit.build(lengths[:]) || !dist.build(five[:]) {
		panic("transport: fixed Huffman codes do not build")
	}
	return lit, dist
}()

// bitReader reads src least significant bit first. bits holds the next n
// unread bits at the bottom; anything above them is either zero or a
// copy of the stream bits that follow, so a refill may OR over it.
type bitReader struct {
	src  []byte
	pos  int // next byte of src to load
	bits uint64
	n    uint
}

// refill tops the buffer up to at least 56 bits, or to all that is left.
func (b *bitReader) refill() {
	if len(b.src)-b.pos >= 8 {
		b.bits |= binary.LittleEndian.Uint64(b.src[b.pos:]) << (b.n & 63)
		b.pos += int(63-b.n) >> 3
		b.n |= 56
		return
	}
	for b.n <= 56 && b.pos < len(b.src) {
		b.bits |= uint64(b.src[b.pos]) << (b.n & 63)
		b.pos++
		b.n += 8
	}
}

// take consumes k <= 16 bits, refilling first if needed; ok is false
// when the input ends before them.
func (b *bitReader) take(k uint) (v uint, ok bool) {
	if b.n < k {
		if b.refill(); b.n < k {
			return 0, false
		}
	}
	v = uint(b.bits) & (1<<k - 1)
	b.bits >>= k
	b.n -= k
	return v, true
}

// symbol decodes one symbol of h.
func (b *bitReader) symbol(h *huffman) (uint, error) {
	if b.n < maxCodeLen {
		b.refill()
	}
	sym, n := uint(0), uint(0)
	if e := uint(h.fast[b.bits&(1<<fastBits-1)]); e != 0 {
		sym, n = e>>4, e&15
	} else if sym, n = h.long(b.bits); n == 0 {
		return 0, errInflateCorrupt
	}
	if n > b.n {
		return 0, errInflateTruncated
	}
	b.bits >>= n
	b.n -= n
	return sym, nil
}

// inflater is the decoder's working memory: the two Huffman codes of the
// block being decoded and the code lengths a dynamic header lists. It is
// about 3.5 KB, holds no pointers, and inflate initialises every part of
// it before reading that part, so it can sit on the caller's stack and
// be reused without clearing.
type inflater struct {
	lit, dist huffman
	lengths   [numLitSyms + numDistSyms]uint8
}

// inflate decodes the DEFLATE stream src into dst, which the stream must
// fill exactly.
func (d *inflater) inflate(dst, src []byte) error {
	br := bitReader{src: src}
	op := 0
	for {
		hdr, ok := br.take(3)
		if !ok {
			return errInflateTruncated
		}
		var err error
		switch hdr >> 1 {
		case 0:
			op, err = br.storedBlock(dst, op)
		case 1:
			op, err = br.huffmanBlock(&fixedLit, &fixedDist, dst, op)
		case 2:
			if err = d.readCodes(&br); err == nil {
				op, err = br.huffmanBlock(&d.lit, &d.dist, dst, op)
			}
		default:
			err = errInflateCorrupt
		}
		if err != nil {
			return err
		}
		if hdr&1 != 0 {
			break
		}
	}
	if op != len(dst) {
		return errInflateShort
	}
	return nil
}

// storedBlock copies an uncompressed block to dst[op:] and returns the
// new output position.
func (b *bitReader) storedBlock(dst []byte, op int) (int, error) {
	// The block starts at the next byte boundary: drop the rest of the
	// current byte and hand whole buffered bytes back to src.
	b.pos -= int(b.n >> 3)
	b.bits, b.n = 0, 0
	if len(b.src)-b.pos < 4 {
		return op, errInflateTruncated
	}
	size := int(binary.LittleEndian.Uint16(b.src[b.pos:]))
	if uint16(size) != ^binary.LittleEndian.Uint16(b.src[b.pos+2:]) {
		return op, errInflateCorrupt
	}
	b.pos += 4
	if len(b.src)-b.pos < size {
		return op, errInflateTruncated
	}
	if len(dst)-op < size {
		return op, errInflateLong
	}
	copy(dst[op:], b.src[b.pos:b.pos+size])
	b.pos += size
	return op + size, nil
}

// readCodes parses a dynamic block header into d.lit and d.dist.
func (d *inflater) readCodes(b *bitReader) error {
	counts, ok := b.take(14)
	if !ok {
		return errInflateTruncated
	}
	nlit, ndist, nclen := int(counts&31)+257, int(counts>>5&31)+1, int(counts>>10)+4
	if nlit > numLitUsed || ndist > numDistUsed {
		return errInflateCorrupt
	}
	// The code lengths are themselves Huffman coded; d.dist holds that
	// code until the distance code replaces it.
	var lens [len(codeLengthOrder)]uint8
	for _, sym := range codeLengthOrder[:nclen] {
		v, ok := b.take(3)
		if !ok {
			return errInflateTruncated
		}
		lens[sym] = uint8(v)
	}
	if !d.dist.build(lens[:]) {
		return errInflateCorrupt
	}
	total := nlit + ndist
	for i := 0; i < total; {
		sym, err := b.symbol(&d.dist)
		if err != nil {
			return err
		}
		if sym < 16 {
			d.lengths[i] = uint8(sym)
			i++
			continue
		}
		// Run of the previous length (16) or of zeros (17, 18).
		var fill uint8
		base, extra := 3, uint(3)
		switch sym {
		case 16:
			if i == 0 {
				return errInflateCorrupt
			}
			fill, extra = d.lengths[i-1], 2
		case 18:
			base, extra = 11, 7
		}
		v, ok := b.take(extra)
		if !ok {
			return errInflateTruncated
		}
		run := base + int(v)
		if run > total-i {
			return errInflateCorrupt
		}
		for ; run > 0; run-- {
			d.lengths[i] = fill
			i++
		}
	}
	if !d.lit.build(d.lengths[:nlit]) || !d.dist.build(d.lengths[nlit:total]) {
		return errInflateCorrupt
	}
	return nil
}

// huffmanBlock decodes one compressed block to dst[op:] and returns the
// new output position. Back-references copy from dst itself.
func (b *bitReader) huffmanBlock(lit, dist *huffman, dst []byte, op int) (int, error) {
	// The reader's state lives in locals for the duration, and refill and
	// symbol are written out again below: the compiler keeps locals in
	// registers, fields it reloads after every store. Through the methods
	// the 22-event text section of BenchmarkInflateSection takes a
	// quarter longer.
	src, pos, bb, nb := b.src, b.pos, b.bits, b.n
	var err error
	for {
		// A refill leaves at least 56 bits unless the input is ending; one
		// literal/length plus distance pair reads at most 15+5+15+13.
		if len(src)-pos >= 8 {
			bb |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
			pos += int(63-nb) >> 3
			nb |= 56
		} else {
			for nb <= 56 && pos < len(src) {
				bb |= uint64(src[pos]) << (nb & 63)
				pos++
				nb += 8
			}
		}

		sym, n := uint(0), uint(0)
		if e := uint(lit.fast[bb&(1<<fastBits-1)]); e != 0 {
			sym, n = e>>4, e&15
		} else if sym, n = lit.long(bb); n == 0 {
			err = errInflateCorrupt
			break
		}
		if n > nb {
			err = errInflateTruncated
			break
		}
		bb >>= n
		nb -= n
		if sym < endOfBlock {
			if op == len(dst) {
				err = errInflateLong
				break
			}
			dst[op] = byte(sym)
			op++
			continue
		}
		if sym == endOfBlock {
			break
		}

		sym -= endOfBlock + 1
		if sym >= numLenCodes {
			err = errInflateCorrupt
			break
		}
		n = uint(lengthExtra[sym])
		length := int(lengthBase[sym]) + int(uint(bb)&(1<<n-1))
		if n > nb {
			err = errInflateTruncated
			break
		}
		bb >>= n
		nb -= n

		if e := uint(dist.fast[bb&(1<<fastBits-1)]); e != 0 {
			sym, n = e>>4, e&15
		} else if sym, n = dist.long(bb); n == 0 {
			err = errInflateCorrupt
			break
		}
		if n > nb {
			err = errInflateTruncated
			break
		}
		bb >>= n
		nb -= n
		if sym >= numDistUsed {
			err = errInflateCorrupt
			break
		}
		n = uint(distExtra[sym])
		back := int(distBase[sym]) + int(uint(bb)&(1<<n-1))
		if n > nb {
			err = errInflateTruncated
			break
		}
		bb >>= n
		nb -= n

		if back > op {
			err = errInflateCorrupt
			break
		}
		if length > len(dst)-op {
			err = errInflateLong
			break
		}
		// A match longer than its distance overlaps its own output: the
		// last back bytes repeat. Each pass copies everything written
		// since the match's source began, doubling the period copied.
		for from, end := op-back, op+length; op < end; {
			op += copy(dst[op:end], dst[from:op])
		}
	}
	b.pos, b.bits, b.n = pos, bb, nb
	return op, err
}
