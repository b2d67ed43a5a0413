package gossip

import (
	"fmt"
	"hash/maphash"
)

// maxIDCacheCapacity is the largest capacity a ring entry can address:
// an entry holds its block's index in the 26 bits above a seq's low 6,
// and a cache never holds more blocks than ids.
const maxIDCacheCapacity = 1 << 26

// idCacheFirst is how many ids, and blocks, the first Add makes room
// for. A member whose cache never outgrows it keeps a few KB instead of
// its capacity.
const idCacheFirst = 64

// idCacheSpread is the block table's slots per block: load at most ½.
// A cache can hold up to a block per id, so each slot weighs on its
// footprint, and a lookup ends on a block whose bitmap it reads anyway.
const idCacheSpread = 2

// IDCache is a bounded set of recently seen identifiers: when full,
// the oldest is forgotten (FIFO), the paper's "remove oldest element
// from eventIds". The recovery subsystem's digests come from one; a
// Node's own eventIds are replay windows, which forget by age instead.
//
// An origin's seqs are consecutive, so the ids are kept in blocks: a
// block holds an origin, the upper bits of a seq (seq>>6) and a bitmap
// of the 64 seqs under them that the cache remembers. One idTable,
// keyed by the seeded hash of (origin, seq>>6), finds a block: Contains
// and Add are one probe of it and a bit test. A FIFO ring of 4-byte
// entries, each block<<6 | seq&63, keeps the order; a block goes back
// on a free list when its bitmap empties.
//
// The footprint follows what the cache holds: nothing until the first
// Add, room for idCacheFirst ids and blocks, then — once, at the next
// id — the full ring, 4 bytes per id. The block table grows only when
// more blocks than it has room for are live at once, by 36 bytes per
// block and at most 16 of table. Ids dense per origin share a block per
// 64 seqs; at worst, every id in a block of its own, 56 bytes per id.
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	capacity int
	ring     []uint32 // block<<6 | seq&63; len(ring) ids are room for; the oldest at head
	head     int
	size     int
	seed     maphash.Seed

	blocks []idBlock // by index; the free ones chained from free
	index  idTable   // finds a block by (origin, seq>>6)
	free   uint32    // index+1 of the first free block, 0 for none
}

// idBlock holds the remembered ids of one origin whose seqs share hi =
// seq>>6: bit seq&63 of bits is set for each. A free block has no bits,
// and its hi links the free list (index+1 of the next free block, 0 at
// its end).
type idBlock struct {
	name NodeID
	hi   uint64
	bits uint64
}

// NewIDCache returns an empty cache with the given capacity.
func NewIDCache(capacity int) (*IDCache, error) { return newIDCache(capacity, maphash.MakeSeed()) }

// newIDCache returns an empty cache hashing ids with seed.
func newIDCache(capacity int, seed maphash.Seed) (*IDCache, error) {
	if capacity <= 0 || capacity > maxIDCacheCapacity {
		return nil, fmt.Errorf("gossip: id cache capacity must be in [1, %d], got %d", maxIDCacheCapacity, capacity)
	}
	return &IDCache{capacity: capacity, seed: seed}, nil
}

// Len reports the number of remembered identifiers.
func (c *IDCache) Len() int { return c.size }

// Capacity reports the maximum number of remembered identifiers.
func (c *IDCache) Capacity() int { return c.capacity }

// Contains reports whether id is remembered.
func (c *IDCache) Contains(id EventID) bool {
	b := c.find(id, originHash(c.seed, id.Origin))
	return b >= 0 && c.blocks[b].bits&(1<<(id.Seq&63)) != 0
}

// Add remembers id and reports whether it was new. Adding a known id is
// a no-op returning false. When the cache is full the oldest identifier
// is evicted.
func (c *IDCache) Add(id EventID) bool {
	oh := originHash(c.seed, id.Origin)
	bit := uint64(1) << (id.Seq & 63)
	b := c.find(id, oh)
	if b >= 0 {
		if c.blocks[b].bits&bit != 0 {
			return false
		}
		// Set before the eviction, which cannot then empty b.
		c.blocks[b].bits |= bit
	}
	if c.size == len(c.ring) && c.size < c.capacity {
		// Warm-up: once at the cache's first id and once at its 65th.
		c.grow()
	}
	var pos int
	if c.size == c.capacity {
		pos = c.head
		c.forget(c.ring[pos])
		c.head++
		if c.head == len(c.ring) {
			c.head = 0
		}
	} else {
		// Nothing was evicted yet, so head is 0.
		pos = c.size
		c.size++
	}
	if b < 0 {
		b = c.addBlock(id, oh, bit)
	}
	c.ring[pos] = uint32(b)<<6 | uint32(id.Seq&63)
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
		k := &c.blocks[e>>6]
		dst = append(dst, EventID{Origin: k.name, Seq: k.hi<<6 | uint64(e&63)})
	}
	return dst
}

// grow makes room for more ids: idCacheFirst at the first Add, the full
// capacity when those are taken. The cache evicts nothing before it is
// at capacity, so the ids sit in ring[:size].
func (c *IDCache) grow() {
	n := min(c.capacity, idCacheFirst)
	if len(c.ring) > 0 {
		n = c.capacity
	}
	ring := make([]uint32, n)
	copy(ring, c.ring[:c.size])
	c.ring = ring
}

// find returns the block of id, whose origin hashes to oh, or -1. The
// block's hash is the id hash of (origin, seq>>6): seeded, so a peer
// cannot pile the blocks it sends into one probe run.
func (c *IDCache) find(id EventID, oh uint64) int {
	if c.size == 0 {
		return -1 // no block is live, and there may be no table yet
	}
	hi := id.Seq >> 6
	h := idHash(oh, hi)
	for b, s := c.index.next(h&c.index.mask, h); b >= 0; b, s = c.index.next(s, h) {
		if k := &c.blocks[b]; k.hi == hi && k.name == id.Origin {
			return b
		}
	}
	return -1
}

// addBlock enters the block of id, whose origin hashes to oh and which
// has no block, holding bit alone, and returns it.
func (c *IDCache) addBlock(id EventID, oh, bit uint64) int {
	if c.free == 0 && len(c.blocks) == cap(c.blocks) {
		c.growBlocks()
	}
	var b int
	if c.free != 0 {
		b = int(c.free - 1)
		c.free = uint32(c.blocks[b].hi)
	} else {
		b = len(c.blocks)
		c.blocks = c.blocks[:b+1]
	}
	hi := id.Seq >> 6
	c.blocks[b] = idBlock{name: id.Origin, hi: hi, bits: bit}
	c.index.link(b, idHash(oh, hi))
	return b
}

// forget clears the bit of ring entry e, and frees its block with its
// last.
func (c *IDCache) forget(e uint32) {
	b := e >> 6
	k := &c.blocks[b]
	if k.bits &^= 1 << (e & 63); k.bits != 0 {
		return
	}
	c.index.unlink(int(b))
	*k = idBlock{hi: uint64(c.free)}
	c.free = b + 1
}

// growBlocks makes room for more blocks: idCacheFirst at the first,
// then twice as many, never more than the capacity. No block is free,
// so every block is live; blocks keep their indices.
func (c *IDCache) growBlocks() {
	n := min(c.capacity, max(idCacheFirst, 2*cap(c.blocks)))
	blocks := make([]idBlock, len(c.blocks), n)
	copy(blocks, c.blocks)
	c.blocks = blocks
	c.index.resize(n, idCacheSpread)
	for b := range c.blocks {
		c.index.link(b, c.index.hashes[b])
	}
}
