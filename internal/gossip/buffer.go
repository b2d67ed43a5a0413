package gossip

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
)

// Buffer is the bounded events store of Figure 1.
//
// Entries are kept ordered by age (youngest first). When the buffer is
// over capacity the oldest event is discarded: highest age first and,
// among equal ages, the entry that has been resident longest — the
// paper's "remove oldest element from events" with age as the discard
// criterion. Ages advance in lockstep each round, which preserves the
// ordering, so only insertions and duplicate age updates reposition
// entries.
//
// Storage is a value slab: entries live by value in a flat slice whose
// slots are recycled through a free list; ordering is a separate slice
// of slot indices; and an idTable of slots, keyed by the seeded hash
// IDCache uses and keeping each entry's hash beside its slot, finds an
// entry by id. Slab, order, free list, table and eviction scratch are
// sized for capacity+1 entries (Add holds one over capacity before it
// evicts) when the buffer is made and when SetCapacity grows it, never
// else, so insert, evict, reposition and expire allocate nothing.
//
// The eviction slices returned by Add, DropExpired and SetCapacity
// share one scratch backing array: they are valid only until the next
// mutating Buffer call. Callers that need to retain them must copy.
//
// Buffer is not safe for concurrent use; the owning Node serializes
// access.
type Buffer struct {
	capacity int
	slab     []bufEntry // value storage; slots recycled via free
	order    []int      // slab indices sorted by (age asc, insertion seq desc)
	free     []int      // recycled slab slots
	index    idTable    // finds a slab slot by id
	seed     maphash.Seed
	nextSeq  uint64
	scratch  []Event // reused backing for eviction returns
}

type bufEntry struct {
	ev  Event
	seq uint64 // insertion order; lower = resident longer
}

// NewBuffer returns an empty buffer with the given capacity.
// The capacity must be positive.
func NewBuffer(capacity int) (*Buffer, error) { return newBuffer(capacity, maphash.MakeSeed()) }

// newBuffer returns an empty buffer hashing ids with seed.
func newBuffer(capacity int, seed maphash.Seed) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: buffer capacity must be positive, got %d", capacity)
	}
	b := &Buffer{capacity: capacity, seed: seed}
	b.reserve(capacity)
	return b, nil
}

// reserve sizes storage for capacity+1 entries unless it has room.
func (b *Buffer) reserve(capacity int) {
	n := capacity + 1
	if n <= len(b.index.hashes) {
		return
	}
	b.slab = slices.Grow(b.slab, n-len(b.slab))
	b.order = slices.Grow(b.order, n-len(b.order))
	b.free = slices.Grow(b.free, n-len(b.free))
	b.scratch = slices.Grow(b.scratch, n-len(b.scratch))
	b.index.resize(n)
	for _, slot := range b.order {
		b.index.link(slot, b.index.hashes[slot])
	}
}

// Len reports the number of buffered events.
func (b *Buffer) Len() int { return len(b.order) }

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
func (b *Buffer) hash(id EventID) uint32 { return hashID(b.seed, id) }

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

// insertPos returns the index at which an entry with the given age and
// insertion sequence keeps the order slice sorted. Among equal ages
// newer insertions sort earlier, so the slice tail is always the
// eviction victim.
func (b *Buffer) insertPos(age int, seq uint64) int {
	return sort.Search(len(b.order), func(i int) bool {
		e := &b.slab[b.order[i]]
		if e.ev.Age != age {
			return e.ev.Age > age
		}
		return e.seq < seq
	})
}

// insert places the slab slot into the order slice at its sorted
// position.
func (b *Buffer) insert(slot int) {
	pos := b.insertPos(b.slab[slot].ev.Age, b.slab[slot].seq)
	b.order = append(b.order, 0)
	copy(b.order[pos+1:], b.order[pos:])
	b.order[pos] = slot
}

// removeAt unlinks the order position and returns its slab slot. The
// slot is NOT freed; the caller either reinserts it (reposition) or
// releases it with freeSlot.
func (b *Buffer) removeAt(pos int) int {
	slot := b.order[pos]
	copy(b.order[pos:], b.order[pos+1:])
	b.order = b.order[:len(b.order)-1]
	return slot
}

// freeSlot recycles a slab slot, dropping payload references so the
// slab does not pin dead event payloads.
func (b *Buffer) freeSlot(slot int) {
	b.slab[slot] = bufEntry{}
	b.free = append(b.free, slot)
}

// takeScratch returns the reusable eviction scratch at length zero,
// first clearing the previous batch's entries so the scratch does not
// pin payloads of long-gone evictions (the slab makes the same
// guarantee via freeSlot).
func (b *Buffer) takeScratch() []Event {
	for i := range b.scratch {
		b.scratch[i] = Event{}
	}
	return b.scratch[:0]
}

// alloc claims a slab slot for ev, recycling a free one when available.
func (b *Buffer) alloc(ev Event) int {
	seq := b.nextSeq
	b.nextSeq++
	if n := len(b.free); n > 0 {
		slot := b.free[n-1]
		b.free = b.free[:n-1]
		b.slab[slot] = bufEntry{ev: ev, seq: seq}
		return slot
	}
	b.slab = append(b.slab, bufEntry{ev: ev, seq: seq})
	return len(b.slab) - 1
}

// Add inserts a new event and returns the events evicted to make room,
// oldest first. Adding an event whose ID is already buffered is a
// programming error and reported as such; callers are expected to route
// duplicates through RaiseAge. The returned slice is only valid until
// the next mutating call.
func (b *Buffer) Add(ev Event) ([]Event, error) {
	h := b.hash(ev.ID)
	if b.find(ev.ID, h) >= 0 {
		//gossip:allocok programming-error path; callers route duplicates through RaiseAge
		return nil, fmt.Errorf("gossip: duplicate add of event %s", ev.ID)
	}
	return b.put(ev, h), nil
}

// put is Add for an event the caller has just failed to find.
func (b *Buffer) put(ev Event, h uint32) []Event {
	slot := b.alloc(ev)
	b.insert(slot)
	b.index.link(slot, h)
	return b.evictOverCapacity()
}

// evictOverCapacity removes entries from the order tail until the
// buffer fits its capacity, maintaining index, free list and scratch.
// It returns the evicted events oldest first, nil when none (Add and
// SetCapacity share this bookkeeping).
func (b *Buffer) evictOverCapacity() []Event {
	evicted := b.takeScratch()
	for len(b.order) > b.capacity {
		victim := b.removeAt(len(b.order) - 1)
		b.index.unlink(victim)
		evicted = append(evicted, b.slab[victim].ev)
		b.freeSlot(victim)
	}
	b.scratch = evicted
	if len(evicted) == 0 {
		return nil
	}
	return evicted
}

// RaiseAge updates a buffered event's age to the maximum of its current
// and the given age (Figure 1's duplicate handling). It reports whether
// the event was present.
func (b *Buffer) RaiseAge(id EventID, age int) bool {
	slot := b.find(id, b.hash(id))
	if slot >= 0 {
		b.raiseAt(slot, age)
	}
	return slot >= 0
}

// raiseAt is RaiseAge for the event at a known slab slot.
func (b *Buffer) raiseAt(slot, age int) {
	if age <= b.slab[slot].ev.Age {
		return
	}
	// Reposition: remove and reinsert with the original insertion seq so
	// residency-based tie-breaking is preserved.
	b.removeAt(b.findPos(slot))
	b.slab[slot].ev.Age = age
	b.insert(slot)
}

// findPos locates the order position of a known slab slot via binary
// search on its (age, seq) key.
func (b *Buffer) findPos(slot int) int {
	pos := b.insertPos(b.slab[slot].ev.Age, b.slab[slot].seq)
	// insertPos returns the position the slot occupies, because the
	// predicate is false exactly for entries ordered before (age, seq)
	// and the entry itself compares equal.
	if pos < len(b.order) && b.order[pos] == slot {
		return pos
	}
	// Defensive linear fallback; unreachable if invariants hold.
	for i, cand := range b.order {
		if cand == slot {
			return i
		}
	}
	//gossip:allocok invariant-violation panic, unreachable if index and order agree
	panic(fmt.Sprintf("gossip: buffer index desynchronized for event %s", b.slab[slot].ev.ID))
}

// IncrementAges advances every buffered event's age by one, as done at
// the start of each gossip round (Figure 1). Ordering is preserved.
func (b *Buffer) IncrementAges() {
	for _, slot := range b.order {
		b.slab[slot].ev.Age++
	}
}

// DropExpired removes and returns all events with age strictly greater
// than maxAge, oldest first. The returned slice is only valid until the
// next mutating call.
func (b *Buffer) DropExpired(maxAge int) []Event {
	// Entries are age-ascending, so expired entries form the tail.
	cut := sort.Search(len(b.order), func(i int) bool {
		return b.slab[b.order[i]].ev.Age > maxAge
	})
	if cut == len(b.order) {
		b.scratch = b.takeScratch()
		return nil
	}
	expired := b.takeScratch()
	// Oldest first: walk the tail backwards.
	for i := len(b.order) - 1; i >= cut; i-- {
		slot := b.order[i]
		expired = append(expired, b.slab[slot].ev)
		b.index.unlink(slot)
		b.freeSlot(slot)
	}
	b.order = b.order[:cut]
	b.scratch = expired
	return expired
}

// SetCapacity changes the buffer capacity, evicting oldest events first
// if the buffer shrinks below its current length. It returns the
// evicted events, oldest first. The returned slice is only valid until
// the next mutating call.
func (b *Buffer) SetCapacity(capacity int) ([]Event, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: buffer capacity must be positive, got %d", capacity)
	}
	b.capacity = capacity
	b.reserve(capacity)
	return b.evictOverCapacity(), nil
}

// AppendSnapshot appends copies of all buffered events to dst, youngest
// first, and returns the extended slice. Payload slices are shared
// (events are read-only by convention). Appending into a reused scratch
// slice makes the per-round snapshot allocation-free; the result lives
// as long as the caller keeps dst unchanged.
func (b *Buffer) AppendSnapshot(dst []Event) []Event {
	for _, slot := range b.order {
		dst = append(dst, b.slab[slot].ev)
	}
	return dst
}

// Snapshot returns copies of all buffered events, youngest first.
// Payload slices are shared (events are read-only by convention).
func (b *Buffer) Snapshot() []Event {
	return b.AppendSnapshot(make([]Event, 0, len(b.order)))
}

// AppendOldestUncounted appends to dst up to limit events, oldest first,
// for which counted reports false, and returns the extended slice. It
// implements the scan used by the congestion estimator (paper Figure
// 5(b)): the events that would overflow a buffer of the group-minimum
// size, excluding those already accounted for in the estimator's lost
// set. The scan runs on every receive while the buffer is over that
// size, so callers append into reused scratch. Payload slices are shared.
func (b *Buffer) AppendOldestUncounted(dst []Event, limit int, counted func(EventID) bool) []Event {
	for i := len(b.order) - 1; i >= 0 && limit > 0; i-- {
		ev := b.slab[b.order[i]].ev
		if counted != nil && counted(ev.ID) {
			continue
		}
		dst = append(dst, ev)
		limit--
	}
	return dst
}
