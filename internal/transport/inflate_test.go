package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"unsafe"

	"adaptivegossip/internal/gossip"
)

// stdlibInflater is compress/flate's reader as the codec used it until
// the one-shot decoder replaced it: one inflater reset onto each input.
// It is the oracle inflate is held to, and the "before" side of
// BenchmarkInflateSection.
type stdlibInflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

func newStdlibInflater() *stdlibInflater {
	s := &stdlibInflater{}
	s.fr = flate.NewReader(&s.src)
	return s
}

// readInto inflates src into dst, which it must fill exactly — the
// contract of Compressor.Decompress.
func (s *stdlibInflater) readInto(dst, src []byte) error {
	s.src.Reset(src)
	if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(s.fr, dst); err != nil {
		return err
	}
	var probe [1]byte
	if n, err := s.fr.Read(probe[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("stream continues past %d bytes (read %d, %v)", len(dst), n, err)
	}
	return nil
}

// readAll inflates src to its end, giving up beyond limit bytes of
// output. err is nil exactly when the stream is one compress/flate
// accepts; out holds what was produced before an error.
func (s *stdlibInflater) readAll(src []byte, limit int) (out []byte, tooLong bool, err error) {
	s.src.Reset(src)
	if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return nil, false, err
	}
	out, err = io.ReadAll(io.LimitReader(s.fr, int64(limit)+1))
	return out, len(out) > limit, err
}

// poison overwrites every byte of d's tables, so that anything inflate
// reads without having written it first shows up as a wrong decode.
func poison(d *inflater, with byte) {
	raw := (*[unsafe.Sizeof(inflater{})]byte)(unsafe.Pointer(d))
	for i := range raw {
		raw[i] = with
	}
}

// inflateOracle checks inflate against compress/flate on one input,
// through a decoder that is reused across calls and poisoned between
// them with a changing pattern (every third call keeps the tables the
// previous stream left, which is what reuse looks like in practice).
type inflateOracle struct {
	d      inflater
	stdlib *stdlibInflater
	calls  int
}

func newInflateOracle() *inflateOracle { return &inflateOracle{stdlib: newStdlibInflater()} }

func (o *inflateOracle) inflate(dst, src []byte) error {
	o.calls++
	switch o.calls % 3 {
	case 0:
		poison(&o.d, 0xFF)
	case 1:
		poison(&o.d, byte(o.calls))
	}
	return o.d.inflate(dst, src)
}

// maxOracleOutput bounds the output the oracle compares; a stream that
// inflates past it is skipped.
const maxOracleOutput = 1 << 20

// check holds inflate to compress/flate's verdict on stream: both accept
// it and produce the same bytes — and then no other output length is
// accepted — or both reject it, whatever length is asked for.
func (o *inflateOracle) check(t testing.TB, stream []byte) (accepted bool) {
	t.Helper()
	want, tooLong, stdErr := o.stdlib.readAll(stream, maxOracleOutput)
	if tooLong {
		return false
	}
	if stdErr != nil {
		for _, n := range []int{len(want), len(want) + 1, 0, 2 * len(stream)} {
			if err := o.inflate(make([]byte, n), stream); err == nil {
				t.Fatalf("inflate accepted, as %d bytes, a stream compress/flate rejects (%v after %d bytes): %x",
					n, stdErr, len(want), stream)
			}
		}
		return false
	}
	got := make([]byte, len(want))
	if err := o.inflate(got, stream); err != nil {
		t.Fatalf("inflate rejected (%v) a stream compress/flate inflates to %d bytes: %x", err, len(want), stream)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("inflate and compress/flate disagree on the %d bytes of %x:\n got %x\nwant %x", len(want), stream, got, want)
	}
	if err := o.inflate(make([]byte, len(want)+1), stream); err == nil {
		t.Fatalf("inflate filled %d bytes from a %d-byte stream", len(want)+1, len(want))
	}
	if len(want) > 0 {
		if err := o.inflate(make([]byte, len(want)-1), stream); err == nil {
			t.Fatalf("inflate squeezed a %d-byte stream into %d bytes", len(want), len(want)-1)
		}
	}
	return true
}

// deflateLevels is every level compress/flate's writer takes.
var deflateLevels = []int{flate.HuffmanOnly, flate.DefaultCompression, flate.NoCompression,
	flate.BestSpeed, 2, 3, 4, 5, 6, 7, 8, flate.BestCompression}

// deflateWriters holds one writer per level for deflate to reset: a new
// one allocates over a megabyte, which is most of what a fuzz execution
// would otherwise do. Nothing in this package runs tests in parallel.
var deflateWriters = map[int]*flate.Writer{}

// deflate compresses raw at level. flushEvery > 0 flushes after every
// that many bytes, which ends the block and inserts an empty stored one,
// so even short inputs become multi-block streams.
func deflate(tb testing.TB, raw []byte, level, flushEvery int) []byte {
	tb.Helper()
	var out bytes.Buffer
	fw := deflateWriters[level]
	if fw == nil {
		var err error
		if fw, err = flate.NewWriter(&out, level); err != nil {
			tb.Fatal(err)
		}
		deflateWriters[level] = fw
	}
	fw.Reset(&out)
	for len(raw) > 0 && flushEvery > 0 {
		n := min(flushEvery, len(raw))
		fw.Write(raw[:n])
		fw.Flush()
		raw = raw[n:]
	}
	fw.Write(raw)
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// benchTokens is the dictionary gossipbench draws payload text from
// (bench/e2e/gen.go): telemetry words with three-digit readings, which
// DEFLATE shrinks about threefold — what real text costs, unlike
// zero-filled payloads.
var benchTokens = []string{
	"temp", "humidity", "pressure", "volt", "amp", "rpm", "flow", "level",
	"valve", "pump", "fan", "door", "zone", "rack", "unit", "node",
	"alarm", "warn", "ok", "fault", "open", "closed", "idle", "busy",
	"north", "south", "east", "west", "upper", "lower", "inlet", "outlet",
	"setpoint", "reading", "delta", "mean", "peak", "floor", "drift", "trend",
	"battery", "mains", "backup", "relay", "sensor", "probe", "meter", "gauge",
	"start", "stop", "reset", "trip", "hold", "ramp", "cycle", "phase",
	"red", "amber", "green", "blue", "alpha", "bravo", "charlie", "delta2",
}

// textRound is a round message as gossipbench's udp_full members
// exchange them: events of size-byte payloads — a 16-byte binary header,
// then dictionary text — from 16 origins.
func textRound(events, size int) *gossip.Message {
	rng := rand.New(rand.NewPCG(22, 200))
	m := &gossip.Message{From: "node-03", Round: 41, SamplePeriod: 3,
		MinBuff: []gossip.BuffCap{{Node: "node-11", Cap: 90}}}
	for i := 0; i < events; i++ {
		p := make([]byte, 16, size+16)
		for len(p) < size {
			p = append(p, benchTokens[rng.IntN(len(benchTokens))]...)
			p = append(p, '=', byte('0'+rng.IntN(10)), byte('0'+rng.IntN(10)), byte('0'+rng.IntN(10)), ' ')
		}
		p = p[:size]
		binary.BigEndian.PutUint64(p[:8], uint64(i))
		binary.BigEndian.PutUint64(p[8:16], rng.Uint64())
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("node-%02d", rng.IntN(16))), Seq: uint64(100 + i)},
			Age:     i % 7,
			Payload: p,
		})
	}
	return m
}

// flateSection returns the compressed event section of a flate frame of
// m, and the section's raw form.
func flateSection(tb testing.TB, m *gossip.Message) (comp, raw []byte) {
	tb.Helper()
	raw = appendEventSection(nil, m)
	comp, err := NewFlateCompressor().Compress(nil, raw)
	if err != nil {
		tb.Fatal(err)
	}
	return comp, raw
}

// corpusSections is the compressed event section of every flate frame in
// decodeCorpus that decodes, as (stream, raw length) pairs.
func corpusSections(tb testing.TB) (streams [][]byte, rawLens []int) {
	tb.Helper()
	c := DefaultCodec()
	for _, frame := range decodeCorpus(tb) {
		if len(frame) < frameHdrBytes || frame[3] != codecVersion || frame[4]&flagCompress == 0 {
			continue
		}
		m, err := c.Decode(frame)
		if err != nil {
			continue
		}
		sec := frame[compSectionOffset(m):]
		rawLen, n := binary.Uvarint(sec)
		sec = sec[n+1:] // past the compressor id
		wireLen, n := binary.Uvarint(sec)
		if sec = sec[n:]; uint64(len(sec)) != wireLen {
			tb.Fatalf("corpus frame's compressed section is %d bytes, its envelope says %d", len(sec), wireLen)
		}
		streams, rawLens = append(streams, sec), append(rawLens, int(rawLen))
	}
	if len(streams) < 3 {
		tb.Fatalf("decodeCorpus has only %d flate frames with a compressed section", len(streams))
	}
	return streams, rawLens
}

// TestInflateMatchesStdlib is the round-trip direction of the oracle:
// streams from every writer level — stored blocks, fixed and dynamic
// Huffman blocks, Huffman-only, multi-block — inflate to what was
// compressed, through one reused, poisoned decoder.
func TestInflateMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	random := make([]byte, 70_000) // over 65,535 bytes: more than one stored block
	for i := range random {
		random[i] = byte(rng.Uint64())
	}
	text := appendEventSection(nil, textRound(60, 200))
	inputs := map[string][]byte{
		"empty":        nil,
		"one byte":     {0x00},
		"short":        []byte("gossip"),
		"text section": text,
		"zero section": appendEventSection(nil, benchMessage()),
		"random":       random,
		"runs":         bytes.Repeat([]byte{0xAB}, 100_000), // distance-1 matches of length 258
		"long text":    bytes.Repeat(text, 20),              // far back-references, several dynamic blocks
	}
	o := newInflateOracle()
	for name, raw := range inputs {
		for _, level := range deflateLevels {
			for _, flushEvery := range []int{0, 1000} {
				stream := deflate(t, raw, level, flushEvery)
				if !o.check(t, stream) {
					t.Fatalf("%s at level %d: compress/flate rejects its own writer's output", name, level)
				}
				got := make([]byte, len(raw))
				if err := o.inflate(got, stream); err != nil || !bytes.Equal(got, raw) {
					t.Fatalf("%s at level %d (flush every %d): round trip failed: %v", name, level, flushEvery, err)
				}
			}
		}
	}
}

// TestInflateHostileInput cuts every compressed section of the decode
// corpus at every prefix and flips every bit of it. A truncated stream
// is an error; a damaged one gets compress/flate's verdict; nothing
// panics, reads past the input or writes past the output (the run-time
// bounds checks would turn either into a panic).
func TestInflateHostileInput(t *testing.T) {
	o := newInflateOracle()
	streams, rawLens := corpusSections(t)
	for i, stream := range streams {
		for cut := 0; cut < len(stream); cut++ {
			if err := o.inflate(make([]byte, rawLens[i]), stream[:cut]); err == nil {
				t.Fatalf("section %d: %d of %d bytes inflated successfully", i, cut, len(stream))
			}
			o.check(t, stream[:cut])
		}
		for bit := 0; bit < 8*len(stream); bit++ {
			bad := append([]byte(nil), stream...)
			bad[bit/8] ^= 1 << (bit % 8)
			o.check(t, bad)
		}
	}
	// The same damage at the frame level: the envelope and the section
	// parser see whatever a damaged stream inflates to.
	c := DefaultCodec()
	frame, err := flateCodec().Encode(textRound(22, 200))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, err := c.Decode(frame[:cut]); err == nil {
			t.Fatalf("%d of %d frame bytes decoded successfully", cut, len(frame))
		}
	}
	in, ids := &Inbound{}, newIDTable()
	for bit := 0; bit < 8*len(frame); bit++ {
		bad := append([]byte(nil), frame...)
		bad[bit/8] ^= 1 << (bit % 8)
		m, err := c.Decode(bad)
		checkBorrowedMatchesOwning(t, c, in, ids, bad, m, err)
	}
}

// TestInflateRejectsWhatStdlibRejects pins the hand-built edge cases of
// the accept/reject rule that a writer never produces.
func TestInflateRejectsWhatStdlibRejects(t *testing.T) {
	o := newInflateOracle()
	for name, tc := range map[string]struct {
		stream []byte
		accept bool
	}{
		"reserved block type":            {[]byte{0x07}, false},
		"stored, length check fails":     {[]byte{0x01, 0x01, 0x00, 0x00, 0x00, 'x'}, false},
		"stored, empty, final":           {[]byte{0x01, 0x00, 0x00, 0xFF, 0xFF}, true},
		"stored, trailing bytes ignored": {[]byte{0x01, 0x01, 0x00, 0xFE, 0xFF, 'x', 0xAA, 0xBB}, true},
		"fixed, end of block only":       {[]byte{0x03, 0x00}, true},
		"no final block":                 {[]byte{0x00, 0x00, 0x00, 0xFF, 0xFF}, false},
		"empty input":                    {nil, false},
	} {
		if got := o.check(t, tc.stream); got != tc.accept {
			t.Errorf("%s: accepted = %t, want %t", name, got, tc.accept)
		}
	}
	// Fixed-Huffman distance symbols 30 and 31 are five-bit codes like the
	// other thirty, and corrupt when read: literal 'a', then length 3 with
	// distance code 30 resp. 31, then end of block.
	for _, distSym := range []uint{30, 31} {
		var w bitWriter
		w.bits(0b011, 3)         // final, fixed
		w.code(0x30+'a', 8)      // literal 'a'
		w.code(0b0000001, 7)     // length symbol 257: 3 bytes
		w.code(uint(distSym), 5) // distance symbol
		w.code(0, 7)             // end of block
		if o.check(t, w.bytes()) {
			t.Errorf("fixed block using distance symbol %d accepted", distSym)
		}
	}
	// A back-reference may not reach before the output: the same match
	// with no literal in front of it, then with one for contrast.
	var w bitWriter
	w.bits(0b011, 3)
	w.code(0b0000001, 7)
	w.code(0, 5)
	w.code(0, 7)
	if o.check(t, w.bytes()) {
		t.Error("fixed block with a match before any output accepted")
	}
	w = bitWriter{}
	w.bits(0b011, 3)
	w.code(0x30+'a', 8)
	w.code(0b0000001, 7)
	w.code(0, 5)
	w.code(0, 7)
	if !o.check(t, w.bytes()) {
		t.Error("fixed block with a distance-1 match rejected")
	}
	got := make([]byte, 4)
	if err := o.inflate(got, w.bytes()); err != nil || string(got) != "aaaa" {
		t.Errorf("distance-1 match inflated to %q, %v", got, err)
	}
}

// bitWriter packs a hand-built DEFLATE stream: header fields least
// significant bit first, Huffman codes most significant bit first.
type bitWriter struct {
	out []byte
	n   uint
}

func (w *bitWriter) bits(v uint, n uint) {
	for i := uint(0); i < n; i++ {
		if w.n%8 == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
}

func (w *bitWriter) code(v uint, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.bits(v>>uint(i)&1, 1)
	}
}

func (w *bitWriter) bytes() []byte { return w.out }

// TestInflateAllocFree: a Decompress call into a buffer with room
// allocates nothing — no reader, no window, no Huffman tables.
func TestInflateAllocFree(t *testing.T) {
	f := NewFlateCompressor()
	for name, m := range map[string]*gossip.Message{
		"22 x 200 B text":  textRound(22, 200),
		"30 x 200 B zeros": benchMessage(),
		"one short event":  redundantRound(1, 1, 8, 0), // a fixed-Huffman block
	} {
		comp, raw := flateSection(t, m)
		dst := make([]byte, 0, len(raw))
		allocs := testing.AllocsPerRun(200, func() {
			out, err := f.Decompress(dst, comp, len(raw))
			if err != nil || len(out) != len(raw) {
				t.Fatalf("%s: Decompress: %d bytes, %v", name, len(out), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Decompress allocates %v times per section, want 0", name, allocs)
		}
		if out, _ := f.Decompress(dst, comp, len(raw)); !bytes.Equal(out, raw) {
			t.Errorf("%s: alloc-free Decompress produced the wrong bytes", name)
		}
	}
}

// FuzzInflate holds inflate to compress/flate in both directions, through
// one reused decoder whose tables are poisoned between calls. data as a
// stream: inflate accepts it exactly when compress/flate does, with
// identical output. data as plain bytes: what the writer makes of it at
// the chosen level (any of them: stored, fixed, dynamic, Huffman-only),
// flushed mid-stream or not, must inflate back to data.
func FuzzInflate(f *testing.F) {
	streams, _ := corpusSections(f)
	for _, s := range streams {
		f.Add(s, uint8(0), uint16(0))
	}
	for _, m := range []*gossip.Message{textRound(22, 200), benchMessage(), sampleMessage()} {
		raw := appendEventSection(nil, m)
		for i, level := range deflateLevels {
			f.Add(raw, uint8(i), uint16(0))
			f.Add(raw, uint8(i), uint16(700))
			f.Add(deflate(f, raw, level, 0), uint8(i), uint16(0))
			f.Add(deflate(f, raw, level, 700), uint8(i), uint16(64))
		}
	}
	f.Add([]byte{0x01, 0x00, 0x00, 0xFF, 0xFF}, uint8(0), uint16(0))
	f.Add([]byte{0x03, 0x00}, uint8(1), uint16(1))
	o := newInflateOracle()
	f.Fuzz(func(t *testing.T, data []byte, level uint8, flushEvery uint16) {
		o.check(t, data)
		lv := deflateLevels[int(level)%len(deflateLevels)]
		stream := deflate(t, data, lv, int(flushEvery))
		if !o.check(t, stream) {
			t.Fatalf("level %d: compress/flate rejects its own writer's output", lv)
		}
		got := make([]byte, len(data))
		if err := o.inflate(got, stream); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d, flush every %d: round trip of %x failed: %v", lv, flushEvery, data, err)
		}
	})
}

// BenchmarkInflateSection measures one compressed event section through
// the one-shot decoder and, as the "before" row, through compress/flate's
// reader the way the codec pooled it: the 22-event x 200 B text section
// a gossipbench udp_full member receives, and the Figure-4 frame of
// BenchmarkCodecDecodeV5 (30 x 200 B of zeros). benchgate holds the
// inflate rows to zero allocations.
func BenchmarkInflateSection(b *testing.B) {
	for _, tc := range []struct {
		name string
		msg  *gossip.Message
	}{
		{"text22x200", textRound(22, 200)},
		{"figure4", benchMessage()},
	} {
		comp, raw := flateSection(b, tc.msg)
		dst := make([]byte, len(raw))
		if err := new(inflater).inflate(dst, comp); err != nil || !bytes.Equal(dst, raw) {
			b.Fatalf("%s does not inflate to its raw form: %v", tc.name, err)
		}
		b.Run(tc.name+"/inflate", func(b *testing.B) {
			var d inflater
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if err := d.inflate(dst, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/stdlib", func(b *testing.B) {
			s := newStdlibInflater()
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if err := s.readInto(dst, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
