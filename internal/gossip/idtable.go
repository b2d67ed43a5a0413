package gossip

import (
	"hash/maphash"
	"math/bits"
)

// originHash is the seeded hash of an origin: ids arrive off the wire,
// so their origins are hashed with a per-node seed. idHash derives
// Buffer's and IDCache's keys, (origin, seq), from it; a Node's replay
// windows are keyed by the origin hash itself, so Receive hashes each
// origin once.
func originHash(seed maphash.Seed, origin NodeID) uint64 {
	return maphash.String(seed, string(origin))
}

// idHash is the hash of the key (origin, seq) whose origin hashes to oh:
// the seq folded into oh and the sum mixed (splitmix64's finalizer), so
// keys of one origin spread over the whole table.
func idHash(oh, seq uint64) uint32 {
	x := oh ^ seq*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32(x ^ x>>31)
}

// idTable is an open-addressed table of positions in its owner's
// storage (linear probing, backward-shift deletion) keeping the hash of
// the entry at each position. IDCache indexes its ring with one,
// Buffer its slab, replay its windows. The owner picks the load when
// it sizes the table (resize's spread): a lower load shortens the probe
// runs that lookups walk and that deletion shifts back, for 4 bytes per
// slot more.
//
// A slot holds position+1 in its low bits and, above them, the bits of
// the entry's hash that the position leaves free: a probe reads the
// slot array alone, and its owner compares keys only where the tag
// matches. Homes are hash & mask, so the tags do not move an entry;
// the hashes serve deletion and relinking alone.
type idTable struct {
	slots  []uint32 // tag | position+1, or 0 for an empty slot
	hashes []uint32 // hashes[p] is the hash of the entry at position p
	mask   uint32   // len(slots) - 1
	pos    uint32   // the low bits of a slot that hold position+1
}

// resize makes room for n positions at a load of at most 1/spread —
// the smallest power of two of slots that is spread·n or more — and
// empties the table, keeping the hashes of the positions it had; the
// owner links its live positions again. Hashes and slots share one
// allocation.
func (t *idTable) resize(n, spread int) {
	size := uint64(1)
	for size < uint64(spread)*uint64(n) {
		size <<= 1
	}
	words := make([]uint32, uint64(n)+size)
	copy(words, t.hashes)
	t.hashes = words[:n:n]
	t.slots = words[n:]
	t.mask = uint32(size - 1)
	t.pos = 1<<bits.Len32(uint32(n)) - 1
}

// next returns the first position from slot s on in h's probe run
// (which starts at h & mask) whose entry carries h's tag, and the slot
// to go on from; -1 when the run ends first. The table must exist.
func (t *idTable) next(s, h uint32) (int, uint32) {
	tag := h &^ t.pos
	for ; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return -1, s
		}
		if e&^t.pos == tag {
			return int(e&t.pos) - 1, (s + 1) & t.mask
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
	t.slots[s] = h&^t.pos | uint32(p+1)
}

// unlink removes position p from the table, shifting the entries of its
// probe run back so that no lookup stops short of its entry.
func (t *idTable) unlink(p int) {
	h := t.hashes[p]
	s := h & t.mask
	for e := h&^t.pos | uint32(p+1); t.slots[s] != e; {
		s = (s + 1) & t.mask
	}
	for j := (s + 1) & t.mask; t.slots[j] != 0; j = (j + 1) & t.mask {
		// The entry at j may fill the hole at s if its home slot is not
		// cyclically inside (s, j].
		home := t.hashes[t.slots[j]&t.pos-1] & t.mask
		if (j-home)&t.mask >= (j-s)&t.mask {
			t.slots[s] = t.slots[j]
			s = j
		}
	}
	t.slots[s] = 0
}
