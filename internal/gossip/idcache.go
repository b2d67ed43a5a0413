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
// The ids live in a ring; an open-addressed table of ring positions
// (linear probing, load at most ½, backward-shift deletion) finds them,
// and the hash of each ring entry is kept beside it. The footprint
// follows what the cache holds: nothing until the first Add, a block of
// idCacheBlock ids, then — once, at the next id — the full capacity.
// The hash is seeded per cache, since the ids arrive off the wire.
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	capacity int
	ring     []EventID // len(ring) ids are room for; the oldest at head
	hashes   []uint32  // hashes[p] is the hash of ring[p]
	index    []uint32  // ring position + 1, or 0 for an empty slot
	mask     uint32    // len(index) - 1
	head     int
	size     int
	seed     maphash.Seed
}

// NewIDCache returns an empty cache with the given capacity.
func NewIDCache(capacity int) (*IDCache, error) {
	if capacity <= 0 || uint64(capacity) > maxIDCacheCapacity {
		return nil, fmt.Errorf("gossip: id cache capacity must be in [1, %d], got %d", uint64(maxIDCacheCapacity), capacity)
	}
	return &IDCache{capacity: capacity, seed: maphash.MakeSeed()}, nil
}

// Len reports the number of remembered identifiers.
func (c *IDCache) Len() int { return c.size }

// Capacity reports the maximum number of remembered identifiers.
func (c *IDCache) Capacity() int { return c.capacity }

// Contains reports whether id is remembered.
func (c *IDCache) Contains(id EventID) bool {
	if c.size == 0 {
		return false
	}
	return c.find(id, c.hash(id))
}

// Add remembers id and reports whether it was new. Adding a known id is
// a no-op returning false. When the cache is full the oldest identifier
// is evicted.
func (c *IDCache) Add(id EventID) bool {
	h := c.hash(id)
	if c.size > 0 && c.find(id, h) {
		return false
	}
	if c.size == len(c.ring) && c.size < c.capacity {
		//gossip:allocok once per cache at its first id and once at its 65th: warm-up
		c.grow()
	}
	var pos int
	if c.size == c.capacity {
		pos = c.head
		c.unlink(pos)
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
	c.hashes[pos] = h
	c.link(pos, h)
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

func (c *IDCache) hash(id EventID) uint32 {
	// The origin is hashed with the cache's seed; the sequence number is
	// folded in and the sum mixed (the splitmix64 finalizer), so ids of
	// one origin that differ only in seq spread over the whole table.
	x := maphash.String(c.seed, string(id.Origin)) ^ id.Seq*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uint32(x ^ x>>31)
}

// find reports whether id, which hashes to h, is in the table. The
// table must exist.
func (c *IDCache) find(id EventID, h uint32) bool {
	for s := h & c.mask; ; s = (s + 1) & c.mask {
		e := c.index[s]
		if e == 0 {
			return false
		}
		if c.hashes[e-1] == h && c.ring[e-1] == id {
			return true
		}
	}
}

// link enters ring position pos, whose id hashes to h, into the table.
func (c *IDCache) link(pos int, h uint32) {
	s := h & c.mask
	for c.index[s] != 0 {
		s = (s + 1) & c.mask
	}
	c.index[s] = uint32(pos) + 1
}

// unlink removes ring position pos from the table, shifting the entries
// of its probe run back so that no probe stops short of its id.
func (c *IDCache) unlink(pos int) {
	s := c.hashes[pos] & c.mask
	for c.index[s] != uint32(pos)+1 {
		s = (s + 1) & c.mask
	}
	for j := (s + 1) & c.mask; c.index[j] != 0; j = (j + 1) & c.mask {
		// The entry at j may fill the hole at s if its home slot is not
		// cyclically inside (s, j].
		home := c.hashes[c.index[j]-1] & c.mask
		if (j-home)&c.mask >= (j-s)&c.mask {
			c.index[s] = c.index[j]
			s = j
		}
	}
	c.index[s] = 0
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
	hashes := make([]uint32, n)
	copy(ring, c.ring[:c.size])
	copy(hashes, c.hashes[:c.size])
	slots := uint64(1)
	for slots < 2*uint64(n) {
		slots <<= 1
	}
	c.ring, c.hashes = ring, hashes
	c.index = make([]uint32, slots)
	c.mask = uint32(slots - 1)
	for p := 0; p < c.size; p++ {
		c.link(p, hashes[p])
	}
}
