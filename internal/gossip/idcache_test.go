package gossip

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

func mustCache(t *testing.T, capacity int) *IDCache {
	t.Helper()
	c, err := NewIDCache(capacity)
	if err != nil {
		t.Fatalf("NewIDCache(%d): %v", capacity, err)
	}
	return c
}

func id(origin string, seq uint64) EventID {
	return EventID{Origin: NodeID(origin), Seq: seq}
}

func TestNewIDCacheRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		if _, err := NewIDCache(capacity); err == nil {
			t.Errorf("NewIDCache(%d): want error", capacity)
		}
	}
}

func TestNewIDCacheRejectsUnaddressableCapacity(t *testing.T) {
	if _, err := NewIDCache(maxIDCacheCapacity + 1); err == nil {
		t.Errorf("NewIDCache(%d): want error", maxIDCacheCapacity+1)
	}
}

func TestIDCacheAddAndContains(t *testing.T) {
	c := mustCache(t, 4)
	if c.Contains(id("a", 1)) {
		t.Fatal("empty cache contains an id")
	}
	if !c.Add(id("a", 1)) {
		t.Fatal("first Add returned false")
	}
	if c.Add(id("a", 1)) {
		t.Fatal("duplicate Add returned true")
	}
	if !c.Contains(id("a", 1)) {
		t.Fatal("Contains lost the id")
	}
	if c.Contains(id("a", 2)) {
		t.Fatal("Contains invented an id")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestIDCacheFIFOEviction(t *testing.T) {
	c := mustCache(t, 3)
	for i := uint64(1); i <= 3; i++ {
		c.Add(id("a", i))
	}
	c.Add(id("a", 4)) // evicts a/1
	if c.Contains(id("a", 1)) {
		t.Fatal("oldest id survived eviction")
	}
	for i := uint64(2); i <= 4; i++ {
		if !c.Contains(id("a", i)) {
			t.Fatalf("id a/%d lost", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Re-adding an evicted id works and evicts the now-oldest (a/2).
	if !c.Add(id("a", 1)) {
		t.Fatal("re-add of evicted id returned false")
	}
	if c.Contains(id("a", 2)) {
		t.Fatal("a/2 should have been evicted")
	}
	if got, want := c.AppendIDs(nil), []EventID{id("a", 3), id("a", 4), id("a", 1)}; !slices.Equal(got, want) {
		t.Fatalf("AppendIDs = %v, want %v oldest first", got, want)
	}
}

func TestIDCacheRandomOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	c := mustCache(t, 32)
	var seq uint64
	window := make([]EventID, 0, 64) // newest-last shadow of expected content

	for op := 0; op < 4000; op++ {
		if rng.IntN(10) == 9 && len(window) > 0 {
			// Re-add a remembered id: a duplicate, nothing changes.
			if c.Add(window[rng.IntN(len(window))]) {
				t.Fatalf("op %d: re-add of a remembered id reported new", op)
			}
		} else {
			eid := id("x", seq)
			seq++
			c.Add(eid)
			window = append(window, eid)
			if len(window) > c.Capacity() {
				window = window[len(window)-c.Capacity():]
			}
		}
		if c.Len() != len(window) {
			t.Fatalf("op %d: len %d != shadow %d", op, c.Len(), len(window))
		}
		for _, w := range window {
			if !c.Contains(w) {
				t.Fatalf("op %d: lost %v", op, w)
			}
		}
	}
}

// refIDCache is the map-and-ring IDCache this package had before the
// open-addressed table, verbatim but for its name and the two methods
// the table dropped (SetCapacity, IDs). TestIDCacheMatchesReference
// holds the new cache to its answers.
type refIDCache struct {
	capacity int
	ring     []EventID
	head     int // index of the oldest element
	size     int
	set      map[EventID]struct{}
}

func newRefIDCache(capacity int) (*refIDCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: id cache capacity must be positive, got %d", capacity)
	}
	return &refIDCache{
		capacity: capacity,
		ring:     make([]EventID, capacity),
		set:      make(map[EventID]struct{}, capacity),
	}, nil
}

func (c *refIDCache) Len() int { return c.size }

func (c *refIDCache) Contains(id EventID) bool {
	_, ok := c.set[id]
	return ok
}

func (c *refIDCache) Add(id EventID) bool {
	if _, ok := c.set[id]; ok {
		return false
	}
	if c.size == c.capacity {
		oldest := c.ring[c.head]
		delete(c.set, oldest)
		c.ring[c.head] = id
		c.head = (c.head + 1) % c.capacity
	} else {
		tail := (c.head + c.size) % c.capacity
		c.ring[tail] = id
		c.size++
	}
	c.set[id] = struct{}{}
	return true
}

func (c *refIDCache) AppendIDs(dst []EventID) []EventID {
	for i := 0; i < c.size; i++ {
		dst = append(dst, c.ring[(c.head+i)%c.capacity])
	}
	return dst
}

// TestIDCacheMatchesReference drives the cache and the reference with
// the same random Add/Contains calls — fresh ids, re-adds of ids long
// evicted, and patterns aimed at the hash and the blocks: one origin
// whose seqs step by a power of two, or by 64 so that each id has a
// block of its own, many origins sharing one seq, seqs on both sides of
// a block's edge and near 2⁶⁴−1, ids whose blocks' hashes are equal in
// every bit (so they share the tag and the probe run, and only the key
// tells them apart: blocks of two origins with one seq>>6, and of one
// origin with seq>>6 apart in its low or in its high bits only),
// visiting origins whose ids all leave before they come back, and in
// seed 1 more blocks at once than the first allocation holds — and
// requires identical answers, lengths and oldest-first listings, and
// the cache's invariants.
func TestIDCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1dcace))
		capacity := 1 + rng.IntN(4096)
		if seed%4 == 0 {
			capacity = 1 + rng.IntN(80) // around the first allocation's edge
		}
		origins := make([]NodeID, 1+rng.IntN(300))
		if seed == 1 {
			capacity, origins = 4096, make([]NodeID, 4*idCacheFirst)
		}
		for i := range origins {
			origins[i] = NodeID(fmt.Sprintf("o%03d", i))
		}
		step := uint64(1) << rng.IntN(48)
		hashSeed := maphash.MakeSeed()
		var colliding []EventID
		if seed%5 == 1 {
			colliding = collidingIDs(hashSeed, origins[0])
		}
		got, err := newIDCache(capacity, hashSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newRefIDCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]uint64, len(origins))
		var added []EventID
		var stride, sparse, shared, visits uint64
		for op := 0; op < 5000; op++ {
			var eid EventID
			switch k := rng.IntN(16); {
			case k < 4: // fresh, dense per origin
				o := rng.IntN(len(origins))
				eid = EventID{Origin: origins[o], Seq: next[o]}
				next[o]++
			case k < 6 && len(added) > 0: // re-add, often of an evicted id
				eid = added[rng.IntN(len(added))]
			case k < 7: // one origin, seqs a power of two apart
				eid = EventID{Origin: origins[0], Seq: stride * step}
				stride++
			case k < 8: // one origin, a block per id
				eid = EventID{Origin: "sparse", Seq: sparse << 6}
				sparse++
			case k < 9: // many origins, one seq
				eid = EventID{Origin: origins[shared%uint64(len(origins))], Seq: shared / uint64(len(origins))}
				shared++
			case k < 10: // the last seq of a block or the first of the next
				edge := uint64(1+rng.IntN(8)) << 6
				eid = EventID{Origin: origins[rng.IntN(len(origins))], Seq: edge - uint64(rng.IntN(2))}
			case k < 11: // the top three blocks
				eid = EventID{Origin: origins[rng.IntN(len(origins))], Seq: math.MaxUint64 - uint64(rng.IntN(3*64))}
			case k < 12 && len(colliding) > 0: // one hash, two keys
				eid = colliding[rng.IntN(len(colliding))]
			case k < 13: // a visitor: one id, then gone for a while
				eid = EventID{Origin: NodeID(fmt.Sprintf("v%d", visits%5)), Seq: visits}
				visits++
			default: // small random space: many hits
				eid = EventID{Origin: origins[rng.IntN(len(origins))], Seq: uint64(rng.IntN(64))}
			}
			if rng.IntN(3) == 0 {
				if g, w := got.Contains(eid), want.Contains(eid); g != w {
					t.Fatalf("seed %d op %d: Contains(%v) = %v, reference %v", seed, op, eid, g, w)
				}
				continue
			}
			g, w := got.Add(eid), want.Add(eid)
			if g != w {
				t.Fatalf("seed %d op %d: Add(%v) = %v, reference %v", seed, op, eid, g, w)
			}
			if w {
				added = append(added, eid)
			}
			if got.Len() != want.Len() {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, got.Len(), want.Len())
			}
			if op%97 == 0 {
				if !slices.Equal(got.AppendIDs(nil), want.AppendIDs(nil)) {
					t.Fatalf("seed %d op %d: AppendIDs differs from the reference", seed, op)
				}
				if err := got.checkInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if !slices.Equal(got.AppendIDs(nil), want.AppendIDs(nil)) {
			t.Fatalf("seed %d: final AppendIDs differs from the reference", seed)
		}
		if err := got.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 1 && cap(got.blocks) <= idCacheFirst {
			t.Fatalf("seed 1: the cache has room for %d blocks: it never outgrew its first allocation", cap(got.blocks))
		}
	}
}

// collidingIDs returns ids whose blocks' hashes under seed are equal in
// every bit, found by the birthday bound: two pairs each of blocks of
// two origins with seq>>6 = 0 (two ids in each, so either origin can be
// known when the other's id arrives), and of blocks of origin o whose
// seq>>6 differ in their low 32 bits only and in their high bits only.
func collidingIDs(seed maphash.Seed, o NodeID) []EventID {
	name := func(i uint64) NodeID { return NodeID(fmt.Sprintf("c%d", i)) }
	oh := originHash(seed, o)
	var ids []EventID
	for _, p := range collisions(func(i uint64) uint32 { return idHash(originHash(seed, name(i)), 0) }) {
		for _, i := range p {
			ids = append(ids, EventID{Origin: name(i)}, EventID{Origin: name(i), Seq: 63})
		}
	}
	for _, p := range collisions(func(k uint64) uint32 { return idHash(oh, k) }) {
		ids = append(ids, EventID{Origin: o, Seq: 5 | p[0]<<6}, EventID{Origin: o, Seq: 5 | p[1]<<6})
	}
	for _, p := range collisions(func(k uint64) uint32 { return idHash(oh, 9|k<<32) }) {
		ids = append(ids, EventID{Origin: o, Seq: 9<<6 | p[0]<<38}, EventID{Origin: o, Seq: 9<<6 | p[1]<<38})
	}
	return ids
}

// collisions returns two pairs of keys i < j that hash alike.
func collisions(hash func(uint64) uint32) [][2]uint64 {
	seen := make(map[uint32]uint64)
	var pairs [][2]uint64
	for i := uint64(0); len(pairs) < 2; i++ {
		h := hash(i)
		if j, ok := seen[h]; ok {
			pairs = append(pairs, [2]uint64{j, i})
		}
		seen[h] = i
	}
	return pairs
}

// checkInvariants validates the ring and the blocks: every remembered
// id's bit is set in its block and the id is found; every block is
// either live — as many bits set as the ring has entries in it, never
// none, its hash its key's, found through the table — or free: empty
// and on the free list; and the table holds the live blocks alone.
func (c *IDCache) checkInvariants() error {
	if c.size > len(c.ring) || c.size > c.capacity || c.size > 0 && c.head >= len(c.ring) || c.size < c.capacity && c.head != 0 {
		return fmt.Errorf("size %d, head %d: a ring of %d for a capacity of %d", c.size, c.head, len(c.ring), c.capacity)
	}
	entries := make([]int, len(c.blocks))
	for i := 0; i < c.size; i++ {
		p := (c.head + i) % len(c.ring)
		e := c.ring[p]
		b := int(e >> 6)
		if b >= len(c.blocks) || c.blocks[b].bits&(1<<(e&63)) == 0 {
			return fmt.Errorf("ring position %d names bit %d of block %d, which is not set", p, e&63, b)
		}
		entries[b]++
		k := c.blocks[b]
		if id := (EventID{Origin: k.name, Seq: k.hi<<6 | uint64(e&63)}); !c.Contains(id) {
			return fmt.Errorf("%s at ring position %d is not found", id, p)
		}
	}
	free := make(map[int]bool)
	for f := c.free; f != 0; f = uint32(c.blocks[f-1].hi) {
		b := int(f - 1)
		if b >= len(c.blocks) || free[b] {
			return fmt.Errorf("free list: block %d out of range or listed twice", b)
		}
		free[b] = true
		if k := c.blocks[b]; k.bits != 0 || k.name != "" {
			return fmt.Errorf("free block %d holds %+v", b, k)
		}
	}
	live := make(map[int]bool)
	for b, k := range c.blocks {
		if free[b] {
			continue
		}
		live[b] = true
		if n := bits.OnesCount64(k.bits); n == 0 || n != entries[b] {
			return fmt.Errorf("block %q/%d (%d) has %d bits set, the ring %d entries in it", k.name, k.hi, b, n, entries[b])
		}
		oh := originHash(c.seed, k.name)
		if h := c.index.hashes[b]; h != idHash(oh, k.hi) {
			return fmt.Errorf("block %q/%d (%d) keeps hash %#x, want %#x", k.name, k.hi, b, h, idHash(oh, k.hi))
		}
		if got := c.find(EventID{Origin: k.name, Seq: k.hi << 6}, oh); got != b {
			return fmt.Errorf("block %q/%d at %d is found at %d", k.name, k.hi, b, got)
		}
	}
	if len(c.blocks) > 0 {
		if err := checkTable(&c.index, live); err != nil {
			return fmt.Errorf("block table: %w", err)
		}
	}
	return nil
}

// checkTable requires t to hold exactly the positions in want, each
// tagged with the bits of its hash above the position bits, at a load
// of at most ½ and no less than ¼: TestIDCacheFootprint's arithmetic
// counts on those slots per block.
func checkTable(t *idTable, want map[int]bool) error {
	if slots, n := len(t.slots), len(t.hashes); slots < 2*n || slots >= 4*n {
		return fmt.Errorf("%d slots for %d positions, want the power of two in [%d, %d)", slots, n, 2*n, 4*n)
	}
	linked := 0
	for _, e := range t.slots {
		if e == 0 {
			continue
		}
		linked++
		p := int(e&t.pos) - 1
		if !want[p] {
			return fmt.Errorf("holds position %d, which is not live", p)
		}
		if e&^t.pos != t.hashes[p]&^t.pos {
			return fmt.Errorf("position %d is tagged %#x, its hash %#x", p, e&^t.pos, t.hashes[p])
		}
	}
	if linked != len(want) {
		return fmt.Errorf("holds %d positions, %d are live", linked, len(want))
	}
	return nil
}

// TestIDCacheFootprint pins what a cache costs for what it holds: an
// empty one almost nothing whatever its capacity, a filled one of one
// origin 4 bytes per id plus a block per 64 seqs, reached in two growth
// steps — the first allocation at the first id, the full ring at the
// 65th — and nothing allocated after that, however long it keeps
// evicting.
func TestIDCacheFootprint(t *testing.T) {
	const capacity = 3600
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := mustCache(t, capacity)
	runtime.ReadMemStats(&after)
	if empty := after.TotalAlloc - before.TotalAlloc; empty > 1<<10 {
		t.Fatalf("an empty cache of %d ids allocates %d B, want at most 1 KB", capacity, empty)
	}
	start := before.TotalAlloc
	var grewAt []int
	for i := 0; i <= idCacheFirst; i++ {
		room := len(c.ring)
		c.Add(id("x", uint64(i)))
		if len(c.ring) != room {
			grewAt = append(grewAt, i)
		}
	}
	if want := []int{0, idCacheFirst}; !slices.Equal(grewAt, want) {
		t.Fatalf("the cache grew at ids %v, want only at %v", grewAt, want)
	}
	seq := uint64(idCacheFirst + 1)
	allocs := testing.AllocsPerRun(2*capacity, func() {
		c.Add(id("x", seq))
		seq++
	})
	if allocs != 0 || c.Len() != capacity {
		t.Fatalf("after its %dth id the cache allocates %v times per Add (len %d), want 0", idCacheFirst+1, allocs, c.Len())
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - start; total > 24<<10 {
		t.Fatalf("a filled cache of %d ids of one origin allocated %d B in all, want at most 24 KB", capacity, total)
	}
}

// TestIDCacheForgedOrigins floods a cache with ids each in a block of
// its own — each from a fresh origin, or all from one origin whose seqs
// step by 64 — the worst case for the blocks: they grow to one per id
// and no further, and the cache stays within its documented bound of 72
// bytes per id — allocating at most twice that on the way, by doubling
// — and allocates nothing once full, however long the flood goes on.
// After as many ids again from one honest origin, the flood's blocks
// are gone and a block per 64 seqs is left.
func TestIDCacheForgedOrigins(t *testing.T) {
	const capacity = 1800
	names := make([]NodeID, 2*capacity)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("forged-%d", i))
	}
	for _, flood := range []struct {
		name string
		id   func(i int) EventID
	}{
		{"forged origins", func(i int) EventID { return EventID{Origin: names[i], Seq: 1} }},
		{"one origin, seqs 64 apart", func(i int) EventID { return EventID{Origin: "sparse", Seq: uint64(i) << 6} }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := mustCache(t, capacity)
		for i := range capacity {
			c.Add(flood.id(i))
		}
		runtime.ReadMemStats(&after)
		const bound = 72 * capacity
		if total := after.TotalAlloc - before.TotalAlloc; total > 2*bound {
			t.Fatalf("%s: %d ids allocated %d B, want at most %d", flood.name, capacity, total, 2*bound)
		}
		footprint := 4*(cap(c.ring)+len(c.index.hashes)+len(c.index.slots)) + cap(c.blocks)*int(unsafe.Sizeof(idBlock{}))
		if footprint > bound || cap(c.blocks) > capacity {
			t.Fatalf("%s: footprint %d B (room for %d blocks), want at most %d", flood.name, footprint, cap(c.blocks), bound)
		}
		t.Logf("%s: %d B per id", flood.name, footprint/capacity)
		if n := liveBlocks(c); n != capacity {
			t.Fatalf("%s: %d blocks live after %d ids, want %d", flood.name, n, capacity, capacity)
		}
		i := capacity
		if allocs := testing.AllocsPerRun(capacity-1, func() { c.Add(flood.id(i)); i++ }); allocs != 0 {
			t.Fatalf("%s: a full cache allocates %v times per id, want 0", flood.name, allocs)
		}
		for seq := range uint64(capacity) {
			c.Add(id("honest", seq))
		}
		if n, want := liveBlocks(c), (capacity+63)/64; n != want {
			t.Fatalf("%s: %d blocks live after %d ids of one origin, want %d", flood.name, n, capacity, want)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// liveBlocks counts the blocks with ids in the ring.
func liveBlocks(c *IDCache) int {
	n := 0
	for _, k := range c.blocks {
		if k.bits != 0 {
			n++
		}
	}
	return n
}
