package gossip

import (
	"fmt"
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
// slots are recycled through a free list, and ordering is a separate
// slice of slot indices. After the slab reaches capacity, the steady
// state — insert, evict, reposition, expire — allocates nothing.
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
	index    map[EventID]int
	nextSeq  uint64
	scratch  []Event // reused backing for eviction returns
}

type bufEntry struct {
	ev  Event
	seq uint64 // insertion order; lower = resident longer
}

// NewBuffer returns an empty buffer with the given capacity.
// The capacity must be positive.
func NewBuffer(capacity int) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: buffer capacity must be positive, got %d", capacity)
	}
	return &Buffer{
		capacity: capacity,
		slab:     make([]bufEntry, 0, capacity),
		order:    make([]int, 0, capacity),
		index:    make(map[EventID]int, capacity),
	}, nil
}

// Len reports the number of buffered events.
func (b *Buffer) Len() int { return len(b.order) }

// Capacity reports the maximum number of buffered events.
func (b *Buffer) Capacity() int { return b.capacity }

// Contains reports whether an event with the given ID is buffered.
func (b *Buffer) Contains(id EventID) bool {
	_, ok := b.index[id]
	return ok
}

// Age returns the buffered age of the event and whether it is present.
func (b *Buffer) Age(id EventID) (int, bool) {
	slot, ok := b.index[id]
	if !ok {
		return 0, false
	}
	return b.slab[slot].ev.Age, true
}

// Get returns the buffered event (payload shared, read-only) and whether
// it is present.
func (b *Buffer) Get(id EventID) (Event, bool) {
	slot, ok := b.index[id]
	if !ok {
		return Event{}, false
	}
	return b.slab[slot].ev, true
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
	if _, ok := b.index[ev.ID]; ok {
		//gossip:allocok programming-error path; callers route duplicates through RaiseAge
		return nil, fmt.Errorf("gossip: duplicate add of event %s", ev.ID)
	}
	slot := b.alloc(ev)
	b.insert(slot)
	b.index[ev.ID] = slot
	return b.evictOverCapacity(), nil
}

// evictOverCapacity removes entries from the order tail until the
// buffer fits its capacity, maintaining index, free list and scratch.
// It returns the evicted events oldest first, nil when none (Add and
// SetCapacity share this bookkeeping).
func (b *Buffer) evictOverCapacity() []Event {
	evicted := b.takeScratch()
	for len(b.order) > b.capacity {
		victim := b.removeAt(len(b.order) - 1)
		delete(b.index, b.slab[victim].ev.ID)
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
	slot, ok := b.index[id]
	if !ok {
		return false
	}
	if age <= b.slab[slot].ev.Age {
		return true
	}
	// Reposition: remove and reinsert with the original insertion seq so
	// residency-based tie-breaking is preserved.
	pos := b.findPos(slot)
	b.removeAt(pos)
	b.slab[slot].ev.Age = age
	b.insert(slot)
	return true
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
		delete(b.index, b.slab[slot].ev.ID)
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

// checkInvariants validates ordering, index and free-list consistency.
// It is used by tests only.
func (b *Buffer) checkInvariants() error {
	if len(b.order) > b.capacity {
		return fmt.Errorf("len %d exceeds capacity %d", len(b.order), b.capacity)
	}
	if len(b.order) != len(b.index) {
		return fmt.Errorf("entries %d != index %d", len(b.order), len(b.index))
	}
	if len(b.order)+len(b.free) != len(b.slab) {
		return fmt.Errorf("order %d + free %d != slab %d", len(b.order), len(b.free), len(b.slab))
	}
	for i := 1; i < len(b.order); i++ {
		prev, cur := &b.slab[b.order[i-1]], &b.slab[b.order[i]]
		if prev.ev.Age > cur.ev.Age {
			return fmt.Errorf("age order violated at %d: %d > %d", i, prev.ev.Age, cur.ev.Age)
		}
		if prev.ev.Age == cur.ev.Age && prev.seq < cur.seq {
			return fmt.Errorf("tie order violated at %d", i)
		}
	}
	for id, slot := range b.index {
		if slot < 0 || slot >= len(b.slab) {
			return fmt.Errorf("index key %s maps to out-of-range slot %d", id, slot)
		}
		if b.slab[slot].ev.ID != id {
			return fmt.Errorf("index key %s maps to event %s", id, b.slab[slot].ev.ID)
		}
	}
	seen := make(map[int]bool, len(b.slab))
	for _, slot := range b.order {
		if seen[slot] {
			return fmt.Errorf("slot %d linked twice in order", slot)
		}
		seen[slot] = true
	}
	for _, slot := range b.free {
		if seen[slot] {
			return fmt.Errorf("slot %d both live and free", slot)
		}
		seen[slot] = true
	}
	return nil
}
