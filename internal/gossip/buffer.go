package gossip

import (
	"fmt"
	"hash/maphash"
	"slices"
)

// maxBufferAge bounds max age, and so the buckets (512 KiB at most).
const maxBufferAge = 1 << 16

// bufferIndexSpread is the index's slots per slab slot: load at most ¼.
const bufferIndexSpread = 4

// Buffer is the bounded events store of Figure 1.
//
// Entries are kept ordered by age (youngest first). When the buffer is
// full the oldest event is discarded: highest age first and, among
// equal ages, the entry that has been resident longest — the paper's
// "remove oldest element from events" with age as the discard
// criterion.
//
// The order lives in maxAge+2 age buckets, each an intrusive doubly
// linked list through the slab, newest insertion first. Bucket a holds
// the events of age a; the last holds every age above maxAge, ordered
// by (age, insertion): what the next DropExpired purges. Add and
// RaiseAge clamp ages to [0, maxAge+1], so a forged age can neither
// outlive that purge nor overflow, and an insert or a raise links into
// a known bucket without searching. IncrementAges shifts the buckets up
// and splices the maxAge one in front of the last; the eviction victim
// is the tail of the highest non-empty bucket, found from a hint.
//
// Entries live by value in a slab of capacity slots; an idTable of
// slots, keyed by the seeded id hash, finds one by id. An Add into a
// full buffer writes the newcomer over its victim's slot and links it
// at its bucket's head, where every new insertion goes; a newcomer
// older than everything buffered is the victim itself and is not
// stored. Slots that expiry and shrinking free are recycled through a
// free list. Slab, free list and table are sized for capacity entries
// when the buffer is made and when SetCapacity grows it, never else, so
// insert, evict, reposition and expire allocate nothing. What leaves
// the buffer is returned by value, one event at a time: at most one
// from Add, one per DropExpired or DropOverflow call, oldest first.
//
// The table runs at load at most ¼ (bufferIndexSpread), as IDCache's
// does: a full buffer evicts, and so unlinks, an entry for every event
// it takes in, and is probed for every event received, so short probe
// runs are worth the slots (16 to 32 bytes per entry).
//
// Buffer is not safe for concurrent use; the owning Node serializes
// access.
type Buffer struct {
	capacity int
	maxAge   int
	slab     []bufEntry // value storage; slots recycled via free
	buckets  []bucket   // by age; the last holds every age above maxAge
	top      int        // no bucket above this one holds an entry
	free     []int      // recycled slab slots
	index    idTable    // finds a slab slot by id
	seed     maphash.Seed
	nextSeq  uint64
}

type bufEntry struct {
	ev         Event
	seq        uint64 // insertion order; lower = resident longer
	prev, next int32  // neighbours in the entry's bucket, -1 at its ends
}

// bucket is the head (newest) and tail (oldest) slot of an age
// bucket's list, -1 when it is empty.
type bucket struct{ head, tail int32 }

// NewBuffer returns an empty buffer with the given capacity whose
// events expire past maxAge. The capacity must be positive and maxAge
// in [1, 65536].
func NewBuffer(capacity, maxAge int) (*Buffer, error) {
	return newBuffer(capacity, maxAge, maphash.MakeSeed())
}

// newBuffer returns an empty buffer hashing ids with seed.
func newBuffer(capacity, maxAge int, seed maphash.Seed) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: buffer capacity must be positive, got %d", capacity)
	}
	if maxAge <= 0 || maxAge > maxBufferAge {
		return nil, fmt.Errorf("gossip: max age must be in [1, %d], got %d", maxBufferAge, maxAge)
	}
	b := &Buffer{capacity: capacity, maxAge: maxAge, seed: seed, buckets: slices.Repeat([]bucket{{-1, -1}}, maxAge+2)}
	b.reserve(capacity)
	return b, nil
}

// reserve sizes storage for capacity entries unless it has room.
func (b *Buffer) reserve(capacity int) {
	if capacity <= len(b.index.hashes) {
		return
	}
	b.slab = slices.Grow(b.slab, capacity-len(b.slab))
	b.free = slices.Grow(b.free, capacity-len(b.free))
	b.index.resize(capacity, bufferIndexSpread)
	for _, bk := range b.buckets {
		for s := bk.head; s >= 0; s = b.slab[s].next {
			b.index.link(int(s), b.index.hashes[s])
		}
	}
}

// Len reports the number of buffered events.
func (b *Buffer) Len() int { return len(b.slab) - len(b.free) }

// Capacity reports the maximum number of buffered events.
func (b *Buffer) Capacity() int { return b.capacity }

// Contains reports whether an event with the given ID is buffered.
func (b *Buffer) Contains(id EventID) bool { return b.find(id, b.hash(id)) >= 0 }

// Age returns the buffered age of the event and whether it is present.
func (b *Buffer) Age(id EventID) (int, bool) {
	ev, ok := b.Get(id)
	return ev.Age, ok
}

// Get returns the buffered event (payload shared, read-only) and whether
// it is present.
func (b *Buffer) Get(id EventID) (Event, bool) {
	slot := b.find(id, b.hash(id))
	if slot < 0 {
		return Event{}, false
	}
	return b.slab[slot].ev, true
}

// hash returns id's hash under the buffer's seed.
func (b *Buffer) hash(id EventID) uint32 { return idHash(originHash(b.seed, id.Origin), id.Seq) }

// find returns the slab slot of the event id, which hashes to h, or -1
// when it is not buffered.
func (b *Buffer) find(id EventID, h uint32) int {
	for p, s := b.index.next(h&b.index.mask, h); p >= 0; p, s = b.index.next(s, h) {
		if b.slab[p].ev.ID == id {
			return p
		}
	}
	return -1
}

// bucketOf returns the index of the bucket holding an entry of the
// given (stored, so non-negative) age.
func (b *Buffer) bucketOf(age int) int { return min(age, b.maxAge+1) }

// link enters a raised entry into its new age's bucket: after the
// newer entries of its age, before the first one that is older or was
// inserted earlier. A stored age is never above the others of its
// bucket (the last bucket's are maxAge+1 at least), so no older entry
// precedes the place.
func (b *Buffer) link(slot int) {
	e := &b.slab[slot]
	k := b.bucketOf(e.ev.Age)
	b.top = max(b.top, k)
	bk := &b.buckets[k]
	prev, next := int32(-1), bk.head
	for next >= 0 && b.slab[next].ev.Age == e.ev.Age && b.slab[next].seq > e.seq {
		prev, next = next, b.slab[next].next
	}
	e.prev, e.next = prev, next
	if prev >= 0 {
		b.slab[prev].next = int32(slot)
	} else {
		bk.head = int32(slot)
	}
	if next >= 0 {
		b.slab[next].prev = int32(slot)
	} else {
		bk.tail = int32(slot)
	}
}

// linkHead enters a new insertion at the head of bucket k: it is the
// newest entry there, and its age is not above any other's.
func (b *Buffer) linkHead(slot, k int) {
	bk := &b.buckets[k]
	b.slab[slot].prev, b.slab[slot].next = -1, bk.head
	if bk.head >= 0 {
		b.slab[bk.head].prev = int32(slot)
	} else {
		bk.tail = int32(slot)
	}
	bk.head = int32(slot)
	b.top = max(b.top, k)
}

// unlink removes the slab slot from its age bucket. The slot is NOT
// freed; the caller links it again (reposition), overwrites it (a full
// buffer's insert) or releases it (remove).
func (b *Buffer) unlink(slot int) {
	e := &b.slab[slot]
	bk := &b.buckets[b.bucketOf(e.ev.Age)]
	if e.prev >= 0 {
		b.slab[e.prev].next = e.next
	} else {
		bk.head = e.next
	}
	if e.next >= 0 {
		b.slab[e.next].prev = e.prev
	} else {
		bk.tail = e.prev
	}
}

// clampAge bounds an age to what the buckets hold.
func (b *Buffer) clampAge(age int) int { return min(max(age, 0), b.maxAge+1) }

// oldest returns the slab slot of the oldest entry, lowering the top
// hint to its bucket. The buffer must not be empty.
func (b *Buffer) oldest() int {
	for b.buckets[b.top].tail < 0 {
		b.top--
	}
	return int(b.buckets[b.top].tail)
}

// remove takes the slab slot out of its bucket, the index and the slab,
// and returns its event. The slot is zeroed so the slab does not pin
// the payload.
func (b *Buffer) remove(slot int) Event {
	ev := b.slab[slot].ev
	b.unlink(slot)
	b.index.unlink(slot)
	b.slab[slot] = bufEntry{}
	b.free = append(b.free, slot)
	return ev
}

// Add inserts a new event. A full buffer makes room by evicting its
// oldest event, which Add returns with true; when the newcomer is older
// than everything buffered, that is the newcomer itself, which is then
// not stored. An age above the buffer's max age is stored as max age +
// 1, a negative one as 0. Adding an event whose ID is already buffered
// is a programming error and reported as such; callers are expected to
// route duplicates through RaiseAge.
func (b *Buffer) Add(ev Event) (Event, bool, error) {
	h := b.hash(ev.ID)
	if b.find(ev.ID, h) >= 0 {
		return Event{}, false, fmt.Errorf("gossip: duplicate add of event %s", ev.ID)
	}
	victim, evicted := b.put(ev, h)
	return victim, evicted, nil
}

// put is Add for an event, hashing to h, that the caller has just
// failed to find. A full buffer's victim leaves its bucket and the
// index, and the newcomer is written over it in its slab slot.
func (b *Buffer) put(ev Event, h uint32) (victim Event, evicted bool) {
	ev.Age = b.clampAge(ev.Age)
	k := b.bucketOf(ev.Age)
	var slot int
	switch n := len(b.free); {
	case b.Len() >= b.capacity:
		slot = b.oldest()
		if k > b.top {
			return ev, true
		}
		victim, evicted = b.slab[slot].ev, true
		b.unlink(slot)
		b.index.unlink(slot)
	case n > 0:
		slot, b.free = b.free[n-1], b.free[:n-1]
	default:
		slot = len(b.slab)
		b.slab = b.slab[:slot+1]
	}
	b.slab[slot] = bufEntry{ev: ev, seq: b.nextSeq}
	b.nextSeq++
	b.linkHead(slot, k)
	b.index.link(slot, h)
	return victim, evicted
}

// RaiseAge updates a buffered event's age to the maximum of its current
// and the given age (Figure 1's duplicate handling), the given age
// clamped as Add clamps it. It reports whether the event was present.
func (b *Buffer) RaiseAge(id EventID, age int) bool {
	slot := b.find(id, b.hash(id))
	if slot >= 0 {
		b.raiseAt(slot, age)
	}
	return slot >= 0
}

// raiseAt is RaiseAge for the event at a known slab slot.
func (b *Buffer) raiseAt(slot, age int) {
	age = b.clampAge(age)
	if age <= b.slab[slot].ev.Age {
		return
	}
	// Reposition into the new age's bucket, keeping the original
	// insertion seq so residency-based tie-breaking is preserved.
	b.unlink(slot)
	b.slab[slot].ev.Age = age
	b.link(slot)
}

// IncrementAges advances every buffered event's age by one, as done at
// the start of each gossip round (Figure 1). Ordering is preserved: the
// buckets shift up by one, and the maxAge bucket's events, now expired
// and younger than every event already past maxAge, go in front of the
// last bucket.
func (b *Buffer) IncrementAges() {
	for i := range b.slab {
		b.slab[i].ev.Age++ // free slots too: put overwrites them whole
	}
	old, last := b.buckets[b.maxAge], &b.buckets[b.maxAge+1]
	if old.tail >= 0 {
		b.slab[old.tail].next = last.head
		if last.head >= 0 {
			b.slab[last.head].prev = old.tail
		} else {
			last.tail = old.tail
		}
		last.head = old.head
	}
	copy(b.buckets[1:b.maxAge+1], b.buckets[:b.maxAge])
	b.buckets[0] = bucket{-1, -1}
	b.top = min(b.top+1, b.maxAge+1)
}

// DropExpired removes and returns the oldest event whose age is above
// the buffer's max age, with true; false when none is left. A round
// calls it until it reports false.
func (b *Buffer) DropExpired() (Event, bool) {
	last := b.buckets[b.maxAge+1].tail
	if last < 0 {
		b.top = min(b.top, b.maxAge)
		return Event{}, false
	}
	return b.remove(int(last)), true
}

// SetCapacity changes the buffer capacity. A buffer left holding more
// events than that gives up the oldest ones through DropOverflow, which
// the caller drains before the next Add.
func (b *Buffer) SetCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("gossip: buffer capacity must be positive, got %d", capacity)
	}
	b.capacity = capacity
	b.reserve(capacity)
	return nil
}

// DropOverflow removes and returns the oldest event, with true, while
// the buffer holds more events than its capacity — which only a
// shrinking SetCapacity leaves it doing; false once it fits.
func (b *Buffer) DropOverflow() (Event, bool) {
	if b.Len() <= b.capacity {
		return Event{}, false
	}
	return b.remove(b.oldest()), true
}

// AppendSnapshot appends copies of all buffered events to dst, youngest
// first, and returns the extended slice. Payload slices are shared
// (events are read-only by convention). Appending into a reused scratch
// slice makes the per-round snapshot allocation-free; the result lives
// as long as the caller keeps dst unchanged.
func (b *Buffer) AppendSnapshot(dst []Event) []Event {
	for _, bk := range b.buckets {
		for s := bk.head; s >= 0; s = b.slab[s].next {
			dst = append(dst, b.slab[s].ev)
		}
	}
	return dst
}

// Snapshot returns copies of all buffered events, youngest first.
// Payload slices are shared (events are read-only by convention).
func (b *Buffer) Snapshot() []Event {
	return b.AppendSnapshot(make([]Event, 0, b.Len()))
}

// AppendOldestUncounted appends to dst up to limit events, oldest first,
// for which counted reports false, and returns the extended slice. It
// implements the scan used by the congestion estimator (paper Figure
// 5(b)): the events that would overflow a buffer of the group-minimum
// size, excluding those already accounted for in the estimator's lost
// set. The scan runs on every receive while the buffer is over that
// size, so callers append into reused scratch. Payload slices are shared.
func (b *Buffer) AppendOldestUncounted(dst []Event, limit int, counted func(EventID) bool) []Event {
	for k := len(b.buckets) - 1; k >= 0 && limit > 0; k-- {
		for s := b.buckets[k].tail; s >= 0 && limit > 0; s = b.slab[s].prev {
			ev := b.slab[s].ev
			if counted != nil && counted(ev.ID) {
				continue
			}
			dst = append(dst, ev)
			limit--
		}
	}
	return dst
}
