package gossip

import (
	"fmt"
	"hash/maphash"
	"math"
)

// maxIDCacheCapacity is the largest capacity whose ring positions and
// index table a uint32 can address: the table holds at least twice as
// many slots as the ring, at most 2^32.
const maxIDCacheCapacity = math.MaxUint32 / 2

// idCacheBlock is how many ids the first Add makes room for. A member
// whose cache never outgrows it keeps a few KB instead of its capacity.
const idCacheBlock = 64

// IDCache is the bounded eventIds duplicate-suppression set of Figure 1.
// When full, the oldest identifier is forgotten (FIFO), matching the
// paper's "remove oldest element from eventIds".
//
// The ids live in a ring, found through an idTable of ring positions.
// The footprint follows what the cache holds: nothing until the first
// Add, a block of idCacheBlock ids, then — once, at the next id — the
// full capacity.
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	capacity int
	ring     []EventID // len(ring) ids are room for; the oldest at head
	index    idTable   // finds a ring position by id
	head     int
	size     int
	seed     maphash.Seed
}

// NewIDCache returns an empty cache with the given capacity.
func NewIDCache(capacity int) (*IDCache, error) { return newIDCache(capacity, maphash.MakeSeed()) }

// newIDCache returns an empty cache hashing ids with seed.
func newIDCache(capacity int, seed maphash.Seed) (*IDCache, error) {
	if capacity <= 0 || uint64(capacity) > maxIDCacheCapacity {
		return nil, fmt.Errorf("gossip: id cache capacity must be in [1, %d], got %d", uint64(maxIDCacheCapacity), capacity)
	}
	return &IDCache{capacity: capacity, seed: seed}, nil
}

// Len reports the number of remembered identifiers.
func (c *IDCache) Len() int { return c.size }

// Capacity reports the maximum number of remembered identifiers.
func (c *IDCache) Capacity() int { return c.capacity }

// Contains reports whether id is remembered.
func (c *IDCache) Contains(id EventID) bool { return c.contains(id, hashID(c.seed, id)) }

// contains is Contains for an id that hashes to h.
func (c *IDCache) contains(id EventID, h uint32) bool {
	if c.size == 0 {
		return false
	}
	for p, s := c.index.next(h&c.index.mask, h); p >= 0; p, s = c.index.next(s, h) {
		if c.ring[p] == id {
			return true
		}
	}
	return false
}

// Add remembers id and reports whether it was new. Adding a known id is
// a no-op returning false. When the cache is full the oldest identifier
// is evicted.
func (c *IDCache) Add(id EventID) bool { return c.add(id, hashID(c.seed, id)) }

// add is Add for an id that hashes to h.
func (c *IDCache) add(id EventID, h uint32) bool {
	if c.contains(id, h) {
		return false
	}
	if c.size == len(c.ring) && c.size < c.capacity {
		// Warm-up: once at the cache's first id and once at its 65th.
		c.grow()
	}
	var pos int
	if c.size == c.capacity {
		pos = c.head
		c.index.unlink(pos)
		c.head++
		if c.head == len(c.ring) {
			c.head = 0
		}
	} else {
		// Nothing was evicted yet, so head is 0.
		pos = c.size
		c.size++
	}
	c.ring[pos] = id
	c.index.link(pos, h)
	return true
}

// AppendIDs appends the remembered identifiers, oldest to newest, to dst.
// The recovery subsystem builds its gossip digests from a small IDCache
// this way, into a slice it reuses.
func (c *IDCache) AppendIDs(dst []EventID) []EventID {
	for i := 0; i < c.size; i++ {
		p := c.head + i
		if p >= len(c.ring) {
			p -= len(c.ring)
		}
		dst = append(dst, c.ring[p])
	}
	return dst
}

// grow makes room for more ids: the first block at the first Add, the
// full capacity when the block is full. The cache evicts nothing before
// it is at capacity, so the ids sit in ring[:size].
func (c *IDCache) grow() {
	n := min(c.capacity, idCacheBlock)
	if len(c.ring) > 0 {
		n = c.capacity
	}
	ring := make([]EventID, n)
	copy(ring, c.ring[:c.size])
	c.ring = ring
	c.index.resize(n)
	for p := 0; p < c.size; p++ {
		c.index.link(p, c.index.hashes[p])
	}
}
