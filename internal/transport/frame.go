package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"adaptivegossip/internal/gossip"
)

// Frame constants. The frame header is the fixed prefix of a datagram:
// magic, version, flags and the message kind (see codec.go for the full
// layout).
const (
	codecVersion  = 7 // the one wire version (no unsubscription list)
	flagTraced    = 1 << 2
	flagCompress  = 1 << 3 // the event section is compressed
	flagsKnown    = flagTraced | flagCompress
	maxUint16     = 1<<16 - 1
	frameHdrBytes = 3 + 1 + 1 + 1 // magic + version + flags + kind
)

var codecMagic = [3]byte{'A', 'G', 'B'}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// appendFrame writes the fixed frame header: magic, wire version and
// the flag byte derived from the message, then the kind.
func appendFrame(buf []byte, version byte, m *gossip.Message) []byte {
	buf = append(buf, codecMagic[:]...)
	buf = append(buf, version)
	var flags byte
	if m.Traced {
		flags |= flagTraced
	}
	buf = append(buf, flags)
	buf = append(buf, byte(m.Kind))
	return buf
}

// appendControlPre writes the leading control fields: addressing,
// round, adaptation header, the recovery id lists and the
// failure-detection fields. The trailing control fields follow.
func appendControlPre(buf []byte, m *gossip.Message) []byte {
	buf = appendString(buf, string(m.From))
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.MinBuff)))
	if len(m.MinBuff) > 0 {
		buf = binary.BigEndian.AppendUint64(buf, m.SamplePeriod)
	}
	for _, e := range m.MinBuff {
		buf = appendString(buf, string(e.Node))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.Cap)))
	}
	for _, ids := range [2][]gossip.EventID{m.Digest, m.Request} {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
		for _, id := range ids {
			buf = appendString(buf, string(id.Origin))
			buf = binary.BigEndian.AppendUint64(buf, id.Seq)
		}
	}
	buf = appendString(buf, string(m.Probe))
	buf = binary.BigEndian.AppendUint64(buf, m.ProbeSeq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Updates)))
	for _, u := range m.Updates {
		buf = appendString(buf, string(u.Node))
		buf = append(buf, byte(u.Status))
		buf = binary.BigEndian.AppendUint64(buf, u.Incarnation)
	}
	return buf
}

// appendControlPost writes the trailing control fields: membership
// subscriptions and the health-digest piggyback.
func appendControlPost(buf []byte, m *gossip.Message) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Subs)))
	for _, s := range m.Subs {
		buf = appendString(buf, string(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Health)))
	for i := range m.Health {
		buf = appendHealthDigest(buf, &m.Health[i])
	}
	return buf
}

// appendHealthDigest writes one health digest: fixed counters, then the
// delivery-hops histogram in sparse canonical form (only non-zero
// buckets, indexes ascending).
func appendHealthDigest(buf []byte, d *gossip.HealthDigest) []byte {
	buf = appendString(buf, string(d.Node))
	buf = binary.BigEndian.AppendUint64(buf, d.Round)
	buf = binary.BigEndian.AppendUint64(buf, d.WallMillis)
	buf = binary.BigEndian.AppendUint64(buf, d.Published)
	buf = binary.BigEndian.AppendUint64(buf, d.Delivered)
	buf = binary.BigEndian.AppendUint64(buf, d.DroppedCapacity)
	buf = binary.BigEndian.AppendUint64(buf, d.DroppedExpired)
	buf = binary.BigEndian.AppendUint64(buf, d.MessagesSent)
	buf = binary.BigEndian.AppendUint64(buf, d.MessagesReceived)
	buf = binary.BigEndian.AppendUint64(buf, d.BytesSent)
	buf = binary.BigEndian.AppendUint64(buf, d.BytesReceived)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(d.BufferLen)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(d.BufferCap)))
	buf = binary.BigEndian.AppendUint64(buf, d.DeliverHops.Count)
	buf = binary.BigEndian.AppendUint64(buf, d.DeliverHops.Sum)
	var nb byte
	for _, b := range d.DeliverHops.Buckets {
		if b != 0 {
			nb++
		}
	}
	buf = append(buf, nb)
	for i, b := range d.DeliverHops.Buckets {
		if b == 0 {
			continue
		}
		buf = append(buf, byte(i))
		buf = binary.BigEndian.AppendUint64(buf, b)
	}
	return buf
}

// controlPreSize returns the exact wire size of the leading control
// fields written by appendControlPre.
func controlPreSize(m *gossip.Message) int {
	n := 2 + len(m.From) + 8 + 2
	if len(m.MinBuff) > 0 {
		n += 8
	}
	for _, e := range m.MinBuff {
		n += 2 + len(e.Node) + 4
	}
	n += 2 + 2
	for _, ids := range [2][]gossip.EventID{m.Digest, m.Request} {
		for _, id := range ids {
			n += 2 + len(id.Origin) + 8
		}
	}
	n += 2 + len(m.Probe) + 8
	n += 2
	for _, u := range m.Updates {
		n += 2 + len(u.Node) + 1 + 8
	}
	return n
}

// controlPostSize returns the exact wire size of the trailing control
// fields written by appendControlPost.
func controlPostSize(m *gossip.Message) int {
	n := 2
	for _, s := range m.Subs {
		n += 2 + len(s)
	}
	n += 2
	for i := range m.Health {
		n += healthDigestWireSize(&m.Health[i])
	}
	return n
}

func healthDigestWireSize(d *gossip.HealthDigest) int {
	// node + round/wallMillis + 8 counters + bufferLen/Cap + hist
	// count/sum + bucket count byte.
	n := 2 + len(d.Node) + 8 + 8 + 8*8 + 4 + 4 + 8 + 8 + 1
	for _, b := range d.DeliverHops.Buckets {
		if b != 0 {
			n += 9
		}
	}
	return n
}

// reader is the bounds-checked cursor every decode path shares. ids,
// when non-nil, interns the node ids it reads.
type reader struct {
	data []byte
	off  int
	ids  *idTable
}

// Decode rejections format the offending value, which allocates. That
// is deliberate: a rejected datagram is dropped and counted, so these
// constructors sit outside the steady-state path the hot-path contract
// covers.

// Rejections with nothing to format are allocated once.
var (
	errVarintOverflow = fmt.Errorf("%w: varint overflow", ErrTooLarge)
	errEmptyRun       = errors.New("transport: empty event run")
	errNegativeAge    = errors.New("transport: negative event age")
)

// errLimit reports a field beyond a codec limit.
func errLimit(what string, n uint64) error {
	return fmt.Errorf("%w: %s %d", ErrTooLarge, what, n)
}

// errMalformed reports a field no encoder writes.
func errMalformed(what string, n uint64) error {
	return fmt.Errorf("transport: %s %d", what, n)
}

// need reports whether n more bytes are available. The comparison is
// against the remaining length, never r.off+n, which a hostile length
// near MaxInt would overflow.
func (r *reader) need(n int) error {
	if n < 0 || n > len(r.data)-r.off {
		return ErrTruncated
	}
	return nil
}

// take consumes n bytes, returned as a subslice of the input.
func (r *reader) take(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// uvarint reads one unsigned varint; truncated and over-long (>10 byte)
// encodings error.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, errVarintOverflow
	}
	r.off += n
	return v, nil
}

// id reads one u16-length-prefixed node id.
func (r *reader) id(maxLen int) (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", errLimit("id bytes", uint64(n))
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return r.ids.intern(b), nil
}

// reserve returns s emptied, with room for n elements: the reused
// message's own backing array once it has grown to the working size.
// A list grows as append grows a slice, so the few steps to the
// largest list the traffic holds are paid once, then never again; an
// owning decode starts from nil lists and pays once per list.
func reserve[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)
}

// boundedCount caps a wire-declared element count by what the rest of
// the input could hold at minBytes per element, so a spoofed count in
// a small datagram cannot force a large reservation.
func (r *reader) boundedCount(n, minBytes int) int {
	if maxN := (len(r.data) - r.off) / minBytes; n > maxN {
		return maxN
	}
	return n
}

// decodeControlPre parses the leading control fields into m (the
// counterpart of appendControlPre; the frame header is already
// consumed and its flags applied to m).
func (c Codec) decodeControlPre(r *reader, m *gossip.Message) error {
	from, err := r.id(c.MaxIDLen)
	if err != nil {
		return err
	}
	m.From = gossip.NodeID(from)
	if m.Round, err = r.u64(); err != nil {
		return err
	}
	nk, err := r.u16()
	if err != nil {
		return err
	}
	if nk > 0 {
		if m.SamplePeriod, err = r.u64(); err != nil {
			return err
		}
	}
	// ≥6 bytes per adaptation entry, ≥10 per id, ≥11 per update.
	m.MinBuff = reserve(m.MinBuff, r.boundedCount(int(nk), 6))
	for i := 0; i < int(nk); i++ {
		node, err := r.id(c.MaxIDLen)
		if err != nil {
			return err
		}
		cp, err := r.u32()
		if err != nil {
			return err
		}
		m.MinBuff = append(m.MinBuff, gossip.BuffCap{Node: gossip.NodeID(node), Cap: int(int32(cp))})
	}
	for _, dst := range [2]*[]gossip.EventID{&m.Digest, &m.Request} {
		nd, err := r.u16()
		if err != nil {
			return err
		}
		ids := reserve(*dst, r.boundedCount(int(nd), 10))
		for i := 0; i < int(nd); i++ {
			origin, err := r.id(c.MaxIDLen)
			if err != nil {
				return err
			}
			seq, err := r.u64()
			if err != nil {
				return err
			}
			ids = append(ids, gossip.EventID{Origin: gossip.NodeID(origin), Seq: seq})
		}
		*dst = ids
	}
	probe, err := r.id(c.MaxIDLen)
	if err != nil {
		return err
	}
	m.Probe = gossip.NodeID(probe)
	if m.ProbeSeq, err = r.u64(); err != nil {
		return err
	}
	nu, err := r.u16()
	if err != nil {
		return err
	}
	m.Updates = reserve(m.Updates, r.boundedCount(int(nu), 11))
	for i := 0; i < int(nu); i++ {
		node, err := r.id(c.MaxIDLen)
		if err != nil {
			return err
		}
		status, err := r.u8()
		if err != nil {
			return err
		}
		if gossip.MemberStatus(status) > gossip.MemberConfirmed {
			return errMalformed("unknown member status", uint64(status))
		}
		inc, err := r.u64()
		if err != nil {
			return err
		}
		m.Updates = append(m.Updates, gossip.MemberUpdate{
			Node:        gossip.NodeID(node),
			Status:      gossip.MemberStatus(status),
			Incarnation: inc,
		})
	}
	return nil
}

// decodeControlPost parses the trailing control fields (membership and
// the health-digest section) into m.
func (c Codec) decodeControlPost(r *reader, m *gossip.Message) error {
	n, err := r.u16()
	if err != nil {
		return err
	}
	m.Subs = reserve(m.Subs, r.boundedCount(int(n), 2))
	for i := 0; i < int(n); i++ {
		s, err := r.id(c.MaxIDLen)
		if err != nil {
			return err
		}
		m.Subs = append(m.Subs, gossip.NodeID(s))
	}
	return c.decodeHealth(r, m)
}

// decodeHealth parses the health-digest section into
// m.Health, enforcing the canonical sparse-histogram form so a decoded
// message re-encodes to identical bytes.
func (c Codec) decodeHealth(r *reader, m *gossip.Message) error {
	nh, err := r.u16()
	if err != nil {
		return err
	}
	// ≥107 bytes per digest.
	m.Health = reserve(m.Health, r.boundedCount(int(nh), 107))
	for i := 0; i < int(nh); i++ {
		m.Health = append(m.Health, gossip.HealthDigest{})
		d := &m.Health[len(m.Health)-1]
		node, err := r.id(c.MaxIDLen)
		if err != nil {
			return err
		}
		d.Node = gossip.NodeID(node)
		for _, dst := range [...]*uint64{
			&d.Round, &d.WallMillis,
			&d.Published, &d.Delivered, &d.DroppedCapacity, &d.DroppedExpired,
			&d.MessagesSent, &d.MessagesReceived, &d.BytesSent, &d.BytesReceived,
		} {
			if *dst, err = r.u64(); err != nil {
				return err
			}
		}
		bl, err := r.u32()
		if err != nil {
			return err
		}
		bc, err := r.u32()
		if err != nil {
			return err
		}
		d.BufferLen, d.BufferCap = int(int32(bl)), int(int32(bc))
		if d.DeliverHops.Count, err = r.u64(); err != nil {
			return err
		}
		if d.DeliverHops.Sum, err = r.u64(); err != nil {
			return err
		}
		nb, err := r.u8()
		if err != nil {
			return err
		}
		if int(nb) > len(d.DeliverHops.Buckets) {
			return errLimit("histogram buckets", uint64(nb))
		}
		last := -1
		for j := 0; j < int(nb); j++ {
			idx, err := r.u8()
			if err != nil {
				return err
			}
			if int(idx) >= len(d.DeliverHops.Buckets) || int(idx) <= last {
				return errMalformed("bad histogram bucket index", uint64(idx))
			}
			val, err := r.u64()
			if err != nil {
				return err
			}
			if val == 0 {
				return errMalformed("zero histogram bucket encoded at index", uint64(idx))
			}
			d.DeliverHops.Buckets[idx] = val
			last = int(idx)
		}
	}
	return nil
}
