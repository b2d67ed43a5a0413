package gossip

import (
	"fmt"
	"hash/maphash"
)

// maxIDCacheCapacity is the largest capacity of an IDCache and of a
// Node's eventIds (Params.MaxEventIDs): an idTable slot holds a
// position+1 in its low bits and the hash tag above them, and 2²⁶
// positions leave a tag of 5 bits.
const maxIDCacheCapacity = 1 << 26

// idCacheSpread is the table's slots per ring slot: load at most ¼. A
// full cache unlinks an id for every id it takes in, and deletion
// shifts back the probe run behind the hole, so short runs are worth
// the slots.
const idCacheSpread = 4

// IDCache is a bounded set of distinct identifiers: when full, the
// oldest is forgotten (FIFO), the paper's "remove oldest element from
// eventIds". The recovery subsystem keeps one, its retransmission
// store's index; a Node's own eventIds are replay windows, which forget
// by age instead.
//
// The ids sit in a ring, the oldest at head, and one idTable, keyed by
// the seeded hash of (origin, seq), finds an id's ring slot: Contains
// and Add are one probe of it. An id keeps its slot until it is
// forgotten, and slots are taken in turn round the ring, so a full
// cache's Add gives the new id the slot of the oldest, which it
// forgets: an owner can keep what goes with each id in slices indexed
// by slot (Add, Slot, Oldest, PopOldest).
//
// Ring and table are made with the cache and never grow: per id of
// capacity, 24 bytes of ring, 4 of kept hash and 16 to 32 of table
// slots, at most 60 bytes whatever the ids are. Nothing is allocated
// after NewIDCache.
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	ring  []EventID // by slot; the ids are ring[head], ring[head+1], … cyclically
	head  int
	size  int
	seed  maphash.Seed
	index idTable // finds a ring slot by id
}

// NewIDCache returns an empty cache with the given capacity.
func NewIDCache(capacity int) (*IDCache, error) { return newIDCache(capacity, maphash.MakeSeed()) }

// newIDCache returns an empty cache hashing ids with seed.
func newIDCache(capacity int, seed maphash.Seed) (*IDCache, error) {
	if capacity <= 0 || capacity > maxIDCacheCapacity {
		return nil, fmt.Errorf("gossip: id cache capacity must be in [1, %d], got %d", maxIDCacheCapacity, capacity)
	}
	c := &IDCache{ring: make([]EventID, capacity), seed: seed}
	c.index.resize(capacity, idCacheSpread)
	return c, nil
}

// Len reports the number of remembered identifiers.
func (c *IDCache) Len() int { return c.size }

// Capacity reports the maximum number of remembered identifiers.
func (c *IDCache) Capacity() int { return len(c.ring) }

// Contains reports whether id is remembered.
func (c *IDCache) Contains(id EventID) bool { return c.Slot(id) >= 0 }

// Slot returns the ring slot of id, or -1 when id is not remembered.
func (c *IDCache) Slot(id EventID) int { return c.find(id, c.hash(id)) }

// Add remembers id and returns its ring slot and whether it was new.
// Adding a remembered id changes nothing. When the cache is full the
// oldest identifier is forgotten, and its slot takes id.
func (c *IDCache) Add(id EventID) (slot int, added bool) {
	h := c.hash(id)
	if p := c.find(id, h); p >= 0 {
		return p, false
	}
	if c.size == len(c.ring) {
		c.PopOldest()
	}
	p := c.head + c.size
	if p >= len(c.ring) {
		p -= len(c.ring)
	}
	c.ring[p] = id
	c.index.link(p, h)
	c.size++
	return p, true
}

// Oldest returns the ring slot of the oldest identifier, or -1 when the
// cache is empty.
func (c *IDCache) Oldest() int {
	if c.size == 0 {
		return -1
	}
	return c.head
}

// PopOldest forgets the oldest identifier, if any.
func (c *IDCache) PopOldest() {
	if c.size == 0 {
		return
	}
	c.index.unlink(c.head)
	c.ring[c.head] = EventID{} // pins no origin
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.size--
}

// hash returns id's hash under the cache's seed.
func (c *IDCache) hash(id EventID) uint32 { return idHash(originHash(c.seed, id.Origin), id.Seq) }

// find returns the ring slot of id, which hashes to h, or -1.
func (c *IDCache) find(id EventID, h uint32) int {
	for p, s := c.index.next(h&c.index.mask, h); p >= 0; p, s = c.index.next(s, h) {
		if c.ring[p] == id {
			return p
		}
	}
	return -1
}
