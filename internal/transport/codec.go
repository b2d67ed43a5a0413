// Package transport carries gossip messages between nodes: a versioned
// binary wire codec and a UDP transport with datagram splitting and
// injectable send loss, meshed into in-process groups by UDPNetwork
// (the one real-time fabric, standing in for the paper's
// 60-workstation Ethernet testbed).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"adaptivegossip/internal/gossip"
)

// Wire format v7 (big endian fixed-width fields, unsigned varints where
// noted). The codec is layered: the frame and control encoding lives in
// frame.go, the columnar event section in events.go, the compression
// seam in compress.go; this file orchestrates them.
//
//	magic   [3]byte "AGB"
//	version u8      = 7
//	flags   u8      bit2: trace context present
//	                bit3: event section compressed
//	                (any other bit set, including the retired bit0 —
//	                adaptation header present — and bit1 — group tag —
//	                rejects the frame)
//	kind    u8      message kind (gossip | recovery request/response |
//	                ping | ping-ack | ping-req)
//	from    u16 len + bytes
//	round   u64
//	minbuff u16 count; [count > 0] samplePeriod u64;
//	        each: node u16 len + bytes, cap i32 (the adaptation header,
//	        present iff count > 0)
//	digest  u16 count, each: origin u16 len + bytes, seq u64
//	request u16 count, each: origin u16 len + bytes, seq u64
//	probe   u16 len + bytes
//	probeSeq u64
//	updates u16 count, each: node u16 len + bytes, status u8,
//	        incarnation u64
//	subs    u16 count, each: u16 len + bytes
//	health  u16 count, each:
//	        node u16 len + bytes, round u64, wallMillis u64,
//	        published u64, delivered u64, droppedCapacity u64,
//	        droppedExpired u64, messagesSent u64, messagesReceived u64,
//	        bytesSent u64, bytesReceived u64,
//	        bufferLen i32, bufferCap i32,
//	        hopsCount u64, hopsSum u64,
//	        buckets u8 count, each: index u8, value u64
//	        (bucket indexes strictly increasing, values non-zero —
//	        the canonical form, enforced on decode)
//	event section (last):
//	        rawLen  uvarint  decompressed section size
//	        comp    u8       compressor id (0 = stored)
//	        [if comp != 0] wireLen uvarint
//	        bytes            columnar event rows (events.go), stored or
//	                         compressed per comp
//
// Version 7 is the only version encoded or accepted: a frame carrying
// any other version byte is rejected with ErrBadMagic.

// Codec encodes and decodes gossip messages with hard limits that bound
// the memory a hostile or corrupt datagram can make the decoder commit.
type Codec struct {
	// MaxPayload bounds a single event payload.
	MaxPayload int
	// MaxIDLen bounds node identifier lengths.
	MaxIDLen int
	// MaxEvents bounds the events per message accepted when decoding.
	MaxEvents int

	// Compression, when non-nil, compresses the event section of every
	// encoded frame (falling back to stored form when compression
	// does not pay). Decoding is independent: compressed frames from
	// peers decode regardless of this setting.
	Compression Compressor
	// Stats, when non-nil, accumulates pre-/post-compression event
	// section bytes across encodes.
	Stats *CodecStats

	// sections is the codec's free list of compressor output scratch,
	// shared by its copies; DefaultCodec makes one, and an endpoint
	// gives one to a codec that has none. Without it a compressed
	// encode allocates its scratch.
	sections *freeList[[]byte]
}

// CodecStats counts event-section bytes before and after compression,
// accumulated atomically across every encode through the codec.
// Equal counters mean compression is off (or never paid for itself).
type CodecStats struct {
	PreCompressionBytes  atomic.Uint64
	PostCompressionBytes atomic.Uint64
}

// The limits DefaultCodec sets, and that a zero limit falls back to.
const (
	defaultMaxPayload = 1 << 20
	defaultMaxIDLen   = 256
	defaultMaxEvents  = 1 << 16
)

// DefaultCodec returns the limits used across the repository, with the
// codec's own free list of compression scratch.
func DefaultCodec() Codec {
	return Codec{MaxPayload: defaultMaxPayload, MaxIDLen: defaultMaxIDLen, MaxEvents: defaultMaxEvents,
		sections: newSectionList()}
}

// maxIdleSections bounds the compressor output buffers a codec keeps
// idle: one per encode running at once through the codec or its copies.
const maxIdleSections = 4

func newSectionList() *freeList[[]byte] { return newFreeList[[]byte](maxIdleSections) }

// Errors reported by the codec.
var (
	ErrTruncated = errors.New("transport: truncated message")
	ErrBadMagic  = errors.New("transport: bad magic or version")
	ErrTooLarge  = errors.New("transport: field exceeds codec limit")
)

// maxEventSectionRaw caps the decompressed event-section size a decoder
// will commit to, independent of the (attacker-controlled) rawLen
// field. Real sections are datagram-sized; the cap only exists to bound
// decompression bombs.
const maxEventSectionRaw = 1 << 27

func (c Codec) limits() Codec {
	if c.MaxPayload <= 0 {
		c.MaxPayload = defaultMaxPayload
	}
	if c.MaxIDLen <= 0 {
		c.MaxIDLen = defaultMaxIDLen
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = defaultMaxEvents
	}
	return c
}

// Encode serializes the message into a freshly allocated buffer.
func (c Codec) Encode(m *gossip.Message) ([]byte, error) {
	c = c.limits()
	if err := c.validateForEncode(m); err != nil {
		return nil, err
	}
	return c.appendEncode(make([]byte, 0, c.encodedSize(m)), m), nil
}

// AppendEncode serializes the message, appending its wire encoding to
// buf and returning the extended slice (like append, the result may
// share backing storage with buf). When buf has at least EncodedSize(m)
// spare capacity the call performs no allocation — the hot-path
// contract the UDP transport's reused send buffers rely on. That holds
// with compression configured too, for a codec made by DefaultCodec:
// the event section is staged in place in buf, the compressor writes
// into scratch from the codec's free list and the built-in compressor
// keeps its deflaters in its own, so the trade is CPU for bandwidth
// only.
func (c Codec) AppendEncode(buf []byte, m *gossip.Message) ([]byte, error) {
	c = c.limits()
	if err := c.validateForEncode(m); err != nil {
		return nil, err
	}
	return c.appendEncode(buf, m), nil
}

// appendEncode writes the wire encoding of an already-validated
// message.
func (c Codec) appendEncode(buf []byte, m *gossip.Message) []byte {
	// A message without events has a one-byte section (count = 0), which
	// no compressor shrinks: pings, acks and recovery requests — most of
	// what an everything-on member sends — take the stored path below and
	// never touch the compressor.
	if c.Compression != nil && c.Compression.ID() != compressorNone && len(m.Events) > 0 {
		return c.appendEncodeCompressed(buf, m)
	}
	buf = appendFrame(buf, codecVersion, m)
	buf = appendControlPre(buf, m)
	buf = appendControlPost(buf, m)
	rawLen := eventSectionSize(m)
	buf = binary.AppendUvarint(buf, uint64(rawLen))
	buf = append(buf, compressorNone)
	buf = appendEventSection(buf, m)
	if c.Stats != nil {
		c.Stats.PreCompressionBytes.Add(uint64(rawLen))
		c.Stats.PostCompressionBytes.Add(uint64(rawLen))
	}
	return buf
}

// appendEncodeCompressed writes a frame with the event section run
// through the configured compressor, storing the section raw when
// compression does not pay — which keeps the uncompressed EncodedSize
// an upper bound for buffer sizing either way. The section is first
// written in its stored form, in place; when the compressed form is
// smaller it overwrites it, and the compress flag and compressor id are
// patched into the bytes already written.
func (c Codec) appendEncodeCompressed(buf []byte, m *gossip.Message) []byte {
	flagOff := len(buf) + 4 // magic(3) + version(1)
	buf = appendFrame(buf, codecVersion, m)
	buf = appendControlPre(buf, m)
	buf = appendControlPost(buf, m)
	rawLen := eventSectionSize(m)
	buf = binary.AppendUvarint(buf, uint64(rawLen))
	idOff := len(buf)
	buf = append(buf, compressorNone)
	buf = appendEventSection(buf, m)
	scratch, _ := c.sections.get()
	comp, err := c.Compression.Compress(scratch, buf[idOff+1:])
	post := rawLen
	if err == nil && len(comp)+uvarintLen(uint64(len(comp))) < rawLen {
		buf[flagOff] |= flagCompress
		buf[idOff] = c.Compression.ID()
		buf = binary.AppendUvarint(buf[:idOff+1], uint64(len(comp)))
		buf = append(buf, comp...)
		post = len(comp)
	}
	putBuf(c.sections, comp)
	if c.Stats != nil {
		c.Stats.PreCompressionBytes.Add(uint64(rawLen))
		c.Stats.PostCompressionBytes.Add(uint64(post))
	}
	return buf
}

func (c Codec) validateForEncode(m *gossip.Message) error {
	if m == nil {
		return fmt.Errorf("transport: nil message")
	}
	if len(m.From) > c.MaxIDLen || len(m.From) > maxUint16 {
		return fmt.Errorf("%w: from id %d bytes", ErrTooLarge, len(m.From))
	}
	if len(m.Events) > c.MaxEvents {
		return fmt.Errorf("%w: %d events", ErrTooLarge, len(m.Events))
	}
	if len(m.MinBuff) > maxUint16 || len(m.Subs) > maxUint16 ||
		len(m.Digest) > maxUint16 || len(m.Request) > maxUint16 || len(m.Updates) > maxUint16 {
		return fmt.Errorf("%w: header list too long", ErrTooLarge)
	}
	if !m.Kind.Valid() {
		return fmt.Errorf("transport: unknown message kind %d", m.Kind)
	}
	if len(m.Probe) > c.MaxIDLen {
		return fmt.Errorf("%w: probe id %d bytes", ErrTooLarge, len(m.Probe))
	}
	for _, u := range m.Updates {
		if len(u.Node) > c.MaxIDLen {
			return fmt.Errorf("%w: update id %d bytes", ErrTooLarge, len(u.Node))
		}
		if u.Status > gossip.MemberConfirmed {
			return fmt.Errorf("transport: unknown member status %d", u.Status)
		}
	}
	for _, ids := range [2][]gossip.EventID{m.Digest, m.Request} {
		for _, id := range ids {
			if len(id.Origin) > c.MaxIDLen {
				return fmt.Errorf("%w: digest id %d bytes", ErrTooLarge, len(id.Origin))
			}
		}
	}
	for _, ev := range m.Events {
		if len(ev.ID.Origin) > c.MaxIDLen {
			return fmt.Errorf("%w: origin id %d bytes", ErrTooLarge, len(ev.ID.Origin))
		}
		if len(ev.Payload) > c.MaxPayload {
			return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, len(ev.Payload))
		}
		if ev.Age < 0 {
			return fmt.Errorf("transport: negative age %d", ev.Age)
		}
		// Hop rides the wire only on traced messages. Rejecting (rather
		// than clamping) out-of-range hops keeps the encoding exact:
		// decode(encode(m)) == m.
		if m.Traced && (ev.Hop < 0 || ev.Hop > maxUint16) {
			return fmt.Errorf("%w: hop count %d", ErrTooLarge, ev.Hop)
		}
	}
	if len(m.Health) > maxUint16 {
		return fmt.Errorf("%w: %d health digests", ErrTooLarge, len(m.Health))
	}
	for _, d := range m.Health {
		if len(d.Node) > c.MaxIDLen {
			return fmt.Errorf("%w: health digest id %d bytes", ErrTooLarge, len(d.Node))
		}
	}
	for _, e := range m.MinBuff {
		if len(e.Node) > c.MaxIDLen {
			return fmt.Errorf("%w: minbuff id %d bytes", ErrTooLarge, len(e.Node))
		}
	}
	for _, s := range m.Subs {
		if len(s) > c.MaxIDLen {
			return fmt.Errorf("%w: membership id %d bytes", ErrTooLarge, len(s))
		}
	}
	return nil
}

// EncodedSize returns the wire size of m's encoding — the capacity
// AppendEncode needs to stay allocation-free. The size is exact for the
// default stored encoding; with compression configured it is the
// stored-form upper bound (the encoder falls back to stored whenever
// compression would not shrink the section).
func (c Codec) EncodedSize(m *gossip.Message) int { return c.encodedSize(m) }

// encodedSize returns the (uncompressed) encoding size of m.
func (c Codec) encodedSize(m *gossip.Message) int {
	raw := eventSectionSize(m)
	return frameHdrBytes + controlPreSize(m) + controlPostSize(m) +
		uvarintLen(uint64(raw)) + 1 + raw
}

// chunkSizer tracks the exact encoded size of a chunk under
// construction, updated incrementally as events are appended (the
// columnar marginal cost of an event depends on the run it extends, so
// the sizer carries the run state instead of recomputing the section).
type chunkSizer struct {
	traced bool
	header int // frame + control sections
	raw    int // event rows, excluding the leading count
	count  int
	runLen int
	prev   gossip.Event
}

func (c Codec) newChunkSizer(hdr *gossip.Message) chunkSizer {
	return chunkSizer{
		traced: hdr.Traced,
		header: frameHdrBytes + controlPreSize(hdr) + controlPostSize(hdr),
	}
}

// size returns the exact encoded size of the chunk in its current
// state (for the compressed configuration: its stored-form upper
// bound, which is what datagram budgeting must use).
func (s *chunkSizer) size() int {
	content := uvarintLen(uint64(s.count)) + s.raw
	return s.header + uvarintLen(uint64(content)) + 1 + content
}

// add appends ev to the chunk's size state.
func (s *chunkSizer) add(ev gossip.Event) {
	s.raw += s.marginal(ev)
	if s.count > 0 && s.prev.ID.Origin == ev.ID.Origin {
		s.runLen++
	} else {
		s.runLen = 1
	}
	s.prev = ev
	s.count++
}

// marginal returns the row bytes appending ev would add, given the
// current run state (count growth is handled in size).
func (s *chunkSizer) marginal(ev gossip.Event) int {
	var d int
	if s.count > 0 && s.prev.ID.Origin == ev.ID.Origin {
		d += uvarintLen(uint64(s.runLen+1)) - uvarintLen(uint64(s.runLen))
		d += uvarintLen(zigzag(int64(ev.ID.Seq - s.prev.ID.Seq)))
		d += uvarintLen(zigzag(int64(ev.Age) - int64(s.prev.Age)))
	} else {
		d += uvarintLen(uint64(len(ev.ID.Origin))) + len(ev.ID.Origin)
		d += 1 // runLen = 1
		d += uvarintLen(ev.ID.Seq)
		d += uvarintLen(uint64(ev.Age))
	}
	if s.traced {
		d += uvarintLen(uint64(ev.Hop))
	}
	d += uvarintLen(uint64(len(ev.Payload))) + len(ev.Payload)
	return d
}

// fits reports whether the chunk would still encode within maxSize
// after appending ev.
func (s *chunkSizer) fits(ev gossip.Event, maxSize int) bool {
	t := *s
	t.add(ev)
	return t.size() <= maxSize
}

// EncodeChunks encodes m into one or more datagrams of at most maxSize
// bytes each, splitting the event list when necessary. Fragmentation is
// measured on the uncompressed (stored-form) encoding — compression can
// only shrink a chunk below its budget, never grow it. The adaptation
// header rides every chunk; the other control headers (membership,
// recovery digest/request lists, probe fields and failure-detection
// updates) ride on the first chunk only. Every chunk is a valid
// standalone message carrying the same kind. A single event whose
// encoding cannot fit any chunk is an error, never an oversized
// datagram.
func (c Codec) EncodeChunks(m *gossip.Message, maxSize int) ([][]byte, error) {
	c = c.limits()
	if err := c.validateForEncode(m); err != nil {
		return nil, err
	}
	if c.encodedSize(m) <= maxSize {
		return [][]byte{c.appendEncode(make([]byte, 0, c.encodedSize(m)), m)}, nil
	}
	head := *m
	head.Events = nil
	// The digest and health sections are advisory (repair hints and
	// telemetry, rebroadcast every round): trim them rather than fail
	// when the fixed headers alone would leave no room for events —
	// e.g. MTU-sized datagram bounds with a large recovery digest.
	for len(head.Digest) > 0 && c.encodedSize(&head) > maxSize/2 {
		head.Digest = head.Digest[:len(head.Digest)-1]
	}
	for len(head.Health) > 0 && c.encodedSize(&head) > maxSize/2 {
		head.Health = head.Health[:len(head.Health)-1]
	}
	if hb := c.encodedSize(&head); hb > maxSize {
		return nil, fmt.Errorf("%w: %d-byte message header cannot fit a %d-byte datagram",
			ErrTooLarge, hb, maxSize)
	}
	rest := gossip.Message{Kind: m.Kind, From: m.From, Round: m.Round,
		SamplePeriod: m.SamplePeriod, MinBuff: m.MinBuff, Traced: m.Traced}

	var chunks [][]byte
	cur := head
	sz := c.newChunkSizer(&head)
	for i := 0; i < len(m.Events); {
		ev := m.Events[i]
		if sz.fits(ev, maxSize) {
			cur.Events = append(cur.Events, ev)
			sz.add(ev)
			i++
			continue
		}
		if len(cur.Events) == 0 && len(chunks) > 0 {
			evSize := sz.marginal(ev)
			return nil, fmt.Errorf("%w: event %s (%d bytes) cannot fit a %d-byte datagram",
				ErrTooLarge, ev.ID, evSize, maxSize)
		}
		// Flush the current chunk (possibly the header-only first chunk,
		// whose trimmed digest may leave less event room than the bare
		// continuation header) and retry the event on a fresh one.
		enc, err := c.Encode(&cur)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, enc)
		cur = rest
		cur.Events = nil
		sz = c.newChunkSizer(&rest)
	}
	enc, err := c.Encode(&cur)
	if err != nil {
		return nil, err
	}
	return append(chunks, enc), nil
}

// Decode parses a message, enforcing the codec limits. The returned
// message owns all of its memory and may be retained: it is the
// borrowed parse (decodeInto) into a fresh message and a fresh
// decompression buffer, with every payload then copied out of data.
func (c Codec) Decode(data []byte) (*gossip.Message, error) {
	m := new(gossip.Message)
	var scratch []byte
	if err := c.decodeInto(m, data, nil, &scratch); err != nil {
		return nil, err
	}
	for i := range m.Events {
		m.Events[i] = m.Events[i].Clone()
	}
	m.Borrowed = false
	return m, nil
}

// decodeInto is the one parser behind both decode entry points
// (Decode, Inbound.decode). It overwrites m, reusing the backing arrays
// of its list fields; reads node ids through ids (nil allocates each);
// and leaves every Event.Payload aliasing data or — for a compressed
// event section — *scratch, which is grown as needed. m is marked
// Borrowed; on error its contents are unspecified.
func (c Codec) decodeInto(m *gossip.Message, data []byte, ids *idTable, scratch *[]byte) error {
	c = c.limits()
	r := reader{data: data, ids: ids}
	if err := r.need(4); err != nil {
		return err
	}
	if data[0] != codecMagic[0] || data[1] != codecMagic[1] || data[2] != codecMagic[2] {
		return ErrBadMagic
	}
	if data[3] != codecVersion {
		return ErrBadMagic
	}
	if err := r.need(frameHdrBytes); err != nil {
		return err
	}
	flags, kind := data[4], gossip.MessageKind(data[5])
	r.off = frameHdrBytes
	if flags&^flagsKnown != 0 {
		return errMalformed("unknown frame flags", uint64(flags))
	}
	if !kind.Valid() {
		return errMalformed("unknown message kind", uint64(kind))
	}
	*m = gossip.Message{
		Kind:     kind,
		Traced:   flags&flagTraced != 0,
		Borrowed: true,
		Events:   m.Events[:0],
		MinBuff:  m.MinBuff[:0],
		Subs:     m.Subs[:0],
		Digest:   m.Digest[:0],
		Request:  m.Request[:0],
		Updates:  m.Updates[:0],
		Health:   m.Health[:0],
	}
	if err := c.decodeControlPre(&r, m); err != nil {
		return err
	}
	if err := c.decodeControlPost(&r, m); err != nil {
		return err
	}
	rows, err := c.readEventSection(&r, flags, scratch)
	if err != nil {
		return err
	}
	if r.off != len(data) {
		return errMalformed("trailing bytes:", uint64(len(data)-r.off))
	}
	return c.decodeEventSection(rows, m, ids)
}

// readEventSection consumes the event section framing and returns
// the columnar rows: a subslice of the input for a stored section, the
// decompressed bytes in *scratch for a compressed one. The advertised
// raw length is capped both absolutely and relative to the compressed
// input so a hostile frame cannot turn a small datagram into an
// unbounded allocation (DEFLATE tops out near 1:1032; anything claiming
// more is corrupt by definition).
func (c Codec) readEventSection(r *reader, flags byte, scratch *[]byte) ([]byte, error) {
	rawLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if rawLen > maxEventSectionRaw {
		return nil, errLimit("event section bytes", rawLen)
	}
	comp, err := r.u8()
	if err != nil {
		return nil, err
	}
	if (comp != compressorNone) != (flags&flagCompress != 0) {
		return nil, errMalformed("compression flag/id mismatch, compressor id", uint64(comp))
	}
	if comp == compressorNone {
		return r.take(int(rawLen))
	}
	wireLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// A wireLen beyond MaxInt converts negative and fails here, like any
	// length the input cannot hold.
	src, err := r.take(int(wireLen))
	if err != nil {
		return nil, err
	}
	if rawLen > 1040*wireLen+64 {
		return nil, errLimit("event section bytes claimed from a short compressed section:", rawLen)
	}
	d, ok := decompressors[comp]
	if !ok {
		return nil, errMalformed("unknown compressor id", uint64(comp))
	}
	rows, err := d.Decompress((*scratch)[:0], src, int(rawLen))
	if err != nil {
		return nil, err
	}
	*scratch = rows
	return rows, nil
}
