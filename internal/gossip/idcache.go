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

// idCacheBlock is how many ids, and origins, the first Add makes room
// for. A member whose cache never outgrows it keeps a few KB instead of
// its capacity.
const idCacheBlock = 64

// IDCache is the bounded eventIds duplicate-suppression set of Figure 1.
// When full, the oldest identifier is forgotten (FIFO), matching the
// paper's "remove oldest element from eventIds".
//
// The ids live in a ring, 8 bytes each: the low half of the seq and the
// index of the id's origin in a small origin table. An origin entry
// holds the name, the high half of its ids' seqs (so an origin whose
// seqs cross 2³² takes a second entry) and how many of its ids the ring
// holds; it leaves the table with its last id. One idTable of ring
// positions finds an id, keeping its hash, another of entries an origin.
//
// The footprint follows what the cache holds: nothing until the first
// Add, a block of idCacheBlock ids and origins, then — once, at the next
// id — the full capacity: 12 bytes per id with its hash, and at most 16
// of table. The origin table grows only when more origins than it has
// room for are live at once, by 28 bytes per entry and at most 16 of
// table: at worst, every id from an origin of its own, 72 bytes per id.
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	capacity int
	ring     []cachedID // len(ring) ids are room for; the oldest at head
	index    idTable    // finds a ring position by id
	head     int
	size     int
	seed     maphash.Seed

	origins   []originEntry // by index; the free ones chained from free
	originIdx idTable       // finds an origin entry by (name, high seq half)
	free      uint32        // index+1 of the first free entry, 0 for none
}

// cachedID is a remembered id: the low half of its seq and its origin
// entry, which holds the high half.
type cachedID struct{ lo, origin uint32 }

// originEntry is an origin with ids in the ring, or a free entry: one
// whose count is 0 and whose hi links the free list (index+1 of the
// next free entry, 0 at its end).
type originEntry struct {
	name NodeID
	hi   uint32 // the high half of the seqs of its ids
	live uint32 // its ids in the ring
}

// originKey is the origin table's hash of the entry (origin, hi), the
// origin hashing to oh: seeded, so a peer that sends one origin with
// many seq halves cannot pile its entries into one probe run.
func originKey(oh uint64, hi uint32) uint32 { return idHash(oh, uint64(hi)) }

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

// contains is Contains for an id that hashes to h. It reads the origin
// table only where an id of the ring matches h's tag and seq's low half.
func (c *IDCache) contains(id EventID, h uint32) bool {
	if c.size == 0 {
		return false
	}
	for p, s := c.index.next(h&c.index.mask, h); p >= 0; p, s = c.index.next(s, h) {
		if e := c.ring[p]; e.lo == uint32(id.Seq) {
			if o := &c.origins[e.origin]; o.hi == uint32(id.Seq>>32) && o.name == id.Origin {
				return true
			}
		}
	}
	return false
}

// Add remembers id and reports whether it was new. Adding a known id is
// a no-op returning false. When the cache is full the oldest identifier
// is evicted.
func (c *IDCache) Add(id EventID) bool {
	oh := originHash(c.seed, id.Origin)
	return c.add(id, oh, idHash(oh, id.Seq))
}

// add is Add for an id whose origin hashes to oh and which hashes to h.
// It looks the origin up first: an id whose origin has no entry is new
// without a probe of the ring's table.
func (c *IDCache) add(id EventID, oh uint64, h uint32) bool {
	hi := uint32(id.Seq >> 32)
	o := c.findOrigin(id.Origin, hi, oh)
	if o >= 0 {
		want := cachedID{lo: uint32(id.Seq), origin: uint32(o)}
		for p, s := c.index.next(h&c.index.mask, h); p >= 0; p, s = c.index.next(s, h) {
			if c.ring[p] == want {
				return false
			}
		}
		// Counted before the eviction, which cannot then take o away.
		c.origins[o].live++
	}
	if c.size == len(c.ring) && c.size < c.capacity {
		// Warm-up: once at the cache's first id and once at its 65th.
		c.grow()
	}
	var pos int
	if c.size == c.capacity {
		pos = c.head
		c.index.unlink(pos)
		c.release(c.ring[pos].origin)
		c.head++
		if c.head == len(c.ring) {
			c.head = 0
		}
	} else {
		// Nothing was evicted yet, so head is 0.
		pos = c.size
		c.size++
	}
	if o < 0 {
		o = c.addOrigin(id.Origin, hi, oh)
	}
	c.ring[pos] = cachedID{lo: uint32(id.Seq), origin: uint32(o)}
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
		e := c.ring[p]
		o := &c.origins[e.origin]
		dst = append(dst, EventID{Origin: o.name, Seq: uint64(o.hi)<<32 | uint64(e.lo)})
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
	ring := make([]cachedID, n)
	copy(ring, c.ring[:c.size])
	c.ring = ring
	c.index.resize(n)
	for p := 0; p < c.size; p++ {
		c.index.link(p, c.index.hashes[p])
	}
}

// findOrigin returns the entry of (origin, hi), origin hashing to oh,
// or -1.
func (c *IDCache) findOrigin(origin NodeID, hi uint32, oh uint64) int {
	if c.size == 0 {
		return -1 // no origin is live, and there may be no table yet
	}
	h := originKey(oh, hi)
	for o, s := c.originIdx.next(h&c.originIdx.mask, h); o >= 0; o, s = c.originIdx.next(s, h) {
		if e := &c.origins[o]; e.hi == hi && e.name == origin {
			return o
		}
	}
	return -1
}

// addOrigin enters (origin, hi), origin hashing to oh and the pair not
// in the table, with one id, and returns its entry.
func (c *IDCache) addOrigin(origin NodeID, hi uint32, oh uint64) int {
	if c.free == 0 && len(c.origins) == cap(c.origins) {
		c.growOrigins()
	}
	var o int
	if c.free != 0 {
		o = int(c.free - 1)
		c.free = c.origins[o].hi
	} else {
		o = len(c.origins)
		c.origins = c.origins[:o+1]
	}
	c.origins[o] = originEntry{name: origin, hi: hi, live: 1}
	c.originIdx.link(o, originKey(oh, hi))
	return o
}

// release drops one id of origin entry o, and the entry with its last.
func (c *IDCache) release(o uint32) {
	e := &c.origins[o]
	if e.live--; e.live > 0 {
		return
	}
	c.originIdx.unlink(int(o))
	*e = originEntry{hi: c.free}
	c.free = o + 1
}

// growOrigins makes room for more origins: idCacheBlock at the first,
// then twice as many, never more than the capacity. No entry is free,
// so every entry is live; entries keep their indices.
func (c *IDCache) growOrigins() {
	n := min(c.capacity, max(idCacheBlock, 2*cap(c.origins)))
	origins := make([]originEntry, len(c.origins), n)
	copy(origins, c.origins)
	c.origins = origins
	c.originIdx.resize(n)
	for o := range c.origins {
		c.originIdx.link(o, c.originIdx.hashes[o])
	}
}
