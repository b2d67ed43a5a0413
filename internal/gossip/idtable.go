package gossip

import "hash/maphash"

// hashID is the id hash IDCache and Buffer share: the seq folded into
// the origin's seeded hash (ids arrive off the wire) and the sum mixed
// (splitmix64's finalizer), so ids of one origin spread over the whole
// table. A Node seeds both alike, so one hash serves both lookups.
func hashID(seed maphash.Seed, id EventID) uint32 {
	x := maphash.String(seed, string(id.Origin)) ^ id.Seq*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32(x ^ x>>31)
}

// idTable is an open-addressed table of positions in its owner's
// storage (linear probing, load at most ½, backward-shift deletion)
// keeping the hash of the entry at each position. IDCache indexes its
// ring with one, Buffer its slab; each compares ids where next stops.
type idTable struct {
	slots  []uint32 // position + 1, or 0 for an empty slot
	hashes []uint32 // hashes[p] is the hash of the entry at position p
	mask   uint32   // len(slots) - 1
}

// resize makes room for n positions and empties the table, keeping the
// hashes of the positions it had; the owner links its live positions
// again.
func (t *idTable) resize(n int) {
	hashes := make([]uint32, n)
	copy(hashes, t.hashes)
	size := uint64(1)
	for size < 2*uint64(n) {
		size <<= 1
	}
	t.hashes = hashes
	t.slots = make([]uint32, size)
	t.mask = uint32(size - 1)
}

// next returns the first position from slot s on in h's probe run
// (which starts at h & mask) whose entry hashes to h, and the slot to
// go on from; -1 when the run ends first. The table must exist.
func (t *idTable) next(s, h uint32) (int, uint32) {
	for ; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return -1, s
		}
		if t.hashes[e-1] == h {
			return int(e - 1), (s + 1) & t.mask
		}
	}
}

// link enters position p, whose entry hashes to h, into the table.
func (t *idTable) link(p int, h uint32) {
	t.hashes[p] = h
	s := h & t.mask
	for t.slots[s] != 0 {
		s = (s + 1) & t.mask
	}
	t.slots[s] = uint32(p) + 1
}

// unlink removes position p from the table, shifting the entries of its
// probe run back so that no lookup stops short of its entry.
func (t *idTable) unlink(p int) {
	s := t.hashes[p] & t.mask
	for t.slots[s] != uint32(p)+1 {
		s = (s + 1) & t.mask
	}
	for j := (s + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at s if its home slot is not
		// cyclically inside (s, j].
		home := t.hashes[t.slots[j]-1] & t.mask
		if (j-home)&t.mask >= (j-s)&t.mask {
			t.slots[s] = t.slots[j]
			s = j
		}
	}
	t.slots[s] = 0
}
