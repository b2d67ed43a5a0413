package transport

import (
	"encoding/binary"
	"math"
	"math/bits"

	"adaptivegossip/internal/gossip"
)

// Event-section layer: events are encoded columnar, grouped
// into runs of consecutive same-origin events so each sender id is
// written once per run while the original event order is preserved
// exactly (decode must reproduce the input order — the simulator's
// bit-identical replays and the round-trip tests depend on it).
//
// Section content (all integers unsigned varints unless noted):
//
//	count   total events
//	runs, until count events are consumed:
//	    origin  uvarint len + bytes
//	    runLen  events in this run (>= 1)
//	    seq     first value, then runLen-1 zigzag deltas
//	    age     first value, then runLen-1 zigzag deltas
//	    [if traced] hop per event
//	    per event: payload uvarint len + bytes
//
// A 120-event buffer snapshot from one origin thus writes the origin id
// once and mostly 1-byte seq/age deltas.

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed delta onto the unsigned varint space so small
// negative deltas stay small on the wire.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// appendEventSection writes the columnar event rows of m (the section
// *content*; the compression framing around it is written by the
// codec). Events are validated already.
func appendEventSection(buf []byte, m *gossip.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Events)))
	for start := 0; start < len(m.Events); {
		end := gossip.NextEventRun(m.Events, start)
		run := m.Events[start:end]
		buf = binary.AppendUvarint(buf, uint64(len(run[0].ID.Origin)))
		buf = append(buf, run[0].ID.Origin...)
		buf = binary.AppendUvarint(buf, uint64(len(run)))
		buf = binary.AppendUvarint(buf, run[0].ID.Seq)
		for i := 1; i < len(run); i++ {
			buf = binary.AppendUvarint(buf, zigzag(int64(run[i].ID.Seq-run[i-1].ID.Seq)))
		}
		buf = binary.AppendUvarint(buf, uint64(run[0].Age))
		for i := 1; i < len(run); i++ {
			buf = binary.AppendUvarint(buf, zigzag(int64(run[i].Age)-int64(run[i-1].Age)))
		}
		if m.Traced {
			for i := range run {
				buf = binary.AppendUvarint(buf, uint64(run[i].Hop))
			}
		}
		for i := range run {
			buf = binary.AppendUvarint(buf, uint64(len(run[i].Payload)))
			buf = append(buf, run[i].Payload...)
		}
		start = end
	}
	return buf
}

// eventSectionSize returns the exact byte size appendEventSection will
// write for m.
func eventSectionSize(m *gossip.Message) int {
	n := uvarintLen(uint64(len(m.Events)))
	for start := 0; start < len(m.Events); {
		end := gossip.NextEventRun(m.Events, start)
		run := m.Events[start:end]
		n += uvarintLen(uint64(len(run[0].ID.Origin))) + len(run[0].ID.Origin)
		n += uvarintLen(uint64(len(run)))
		n += uvarintLen(run[0].ID.Seq)
		for i := 1; i < len(run); i++ {
			n += uvarintLen(zigzag(int64(run[i].ID.Seq - run[i-1].ID.Seq)))
		}
		n += uvarintLen(uint64(run[0].Age))
		for i := 1; i < len(run); i++ {
			n += uvarintLen(zigzag(int64(run[i].Age) - int64(run[i-1].Age)))
		}
		if m.Traced {
			for i := range run {
				n += uvarintLen(uint64(run[i].Hop))
			}
		}
		for i := range run {
			n += uvarintLen(uint64(len(run[i].Payload))) + len(run[i].Payload)
		}
		start = end
	}
	return n
}

// decodeEventSection parses the columnar event rows into m.Events
// (reusing its backing array), enforcing the codec limits and full
// validity of every decoded field (a successful decode must re-encode).
// rows must be exactly the section content; trailing bytes error.
// Origins are interned through ids and every Payload aliases rows.
func (c Codec) decodeEventSection(rows []byte, m *gossip.Message, ids *idTable) error {
	r := reader{data: rows, ids: ids}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(c.MaxEvents) {
		return errLimit("events", count)
	}
	// Each event needs at least 3 bytes of columns (seq, age, payload
	// length).
	m.Events = reserve(m.Events, min(int(count), (len(rows)-r.off)/3+1))
	for uint64(len(m.Events)) < count {
		olen, err := r.uvarint()
		if err != nil {
			return err
		}
		if olen > uint64(c.MaxIDLen) {
			return errLimit("origin id bytes", olen)
		}
		ob, err := r.take(int(olen))
		if err != nil {
			return err
		}
		origin := gossip.NodeID(ids.intern(ob))
		runLen, err := r.uvarint()
		if err != nil {
			return err
		}
		if runLen == 0 {
			return errEmptyRun
		}
		if runLen > count-uint64(len(m.Events)) {
			return errLimit("events in run", runLen)
		}
		if runLen > uint64((len(rows)-r.off)/3+1) {
			return ErrTruncated
		}
		base := len(m.Events)
		var seq uint64
		for i := 0; i < int(runLen); i++ {
			z, err := r.uvarint()
			if err != nil {
				return err
			}
			if i == 0 {
				seq = z
			} else {
				seq += uint64(unzigzag(z))
			}
			m.AppendEvent(gossip.Event{ID: gossip.EventID{Origin: origin, Seq: seq}})
		}
		var age int64
		for i := 0; i < int(runLen); i++ {
			z, err := r.uvarint()
			if err != nil {
				return err
			}
			if i == 0 {
				if z > math.MaxInt64 {
					return errLimit("event age", z)
				}
				age = int64(z)
			} else {
				age += unzigzag(z)
			}
			if age < 0 {
				return errNegativeAge
			}
			m.Events[base+i].Age = int(age)
		}
		if m.Traced {
			for i := 0; i < int(runLen); i++ {
				hop, err := r.uvarint()
				if err != nil {
					return err
				}
				if hop > maxUint16 {
					return errLimit("hop count", hop)
				}
				m.Events[base+i].Hop = int(hop)
			}
		}
		for i := 0; i < int(runLen); i++ {
			plen, err := r.uvarint()
			if err != nil {
				return err
			}
			if plen > uint64(c.MaxPayload) {
				return errLimit("payload bytes", plen)
			}
			payload, err := r.take(int(plen))
			if err != nil {
				return err
			}
			if plen > 0 {
				m.Events[base+i].Payload = payload
			}
		}
	}
	if r.off != len(rows) {
		return errMalformed("trailing bytes in event section:", uint64(len(rows)-r.off))
	}
	return nil
}
