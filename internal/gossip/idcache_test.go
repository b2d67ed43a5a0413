package gossip

import (
	"fmt"
	"hash/maphash"
	"math"
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
	var tooBig uint64 = maxIDCacheCapacity + 1
	if tooBig > math.MaxInt {
		t.Skip("int cannot express the first unaddressable capacity")
	}
	if _, err := NewIDCache(int(tooBig)); err == nil {
		t.Errorf("NewIDCache(%d): want error", tooBig)
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
// evicted, and patterns aimed at the hash and the origin table: one
// origin whose seqs step by a power of two, many origins sharing one
// seq, ids whose hashes are equal in every bit (so they share the tag
// and the probe run, and only the key tells them apart: ids of two
// origins with one seq, of one origin with seqs apart in their low or
// in their high half only, and of one origin in two origin entries
// whose table hashes are equal), visiting origins whose ids all leave
// before they come back, and in seed 1 more origins at once than the
// first block holds — and requires identical answers, lengths and
// oldest-first listings, and the cache's invariants.
func TestIDCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1dcace))
		capacity := 1 + rng.IntN(4096)
		if seed%4 == 0 {
			capacity = 1 + rng.IntN(80) // around the first block's edge
		}
		origins := make([]NodeID, 1+rng.IntN(300))
		if seed == 1 {
			capacity, origins = 4096, make([]NodeID, 4*idCacheBlock)
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
		var stride, shared, visits uint64
		for op := 0; op < 5000; op++ {
			var eid EventID
			switch k := rng.IntN(12); {
			case k < 4: // fresh, dense per origin
				o := rng.IntN(len(origins))
				eid = EventID{Origin: origins[o], Seq: next[o]}
				next[o]++
			case k < 6 && len(added) > 0: // re-add, often of an evicted id
				eid = added[rng.IntN(len(added))]
			case k < 7: // one origin, seqs a power of two apart
				eid = EventID{Origin: origins[0], Seq: stride * step}
				stride++
			case k < 8: // many origins, one seq
				eid = EventID{Origin: origins[shared%uint64(len(origins))], Seq: shared / uint64(len(origins))}
				shared++
			case k < 9 && len(colliding) > 0: // one hash, two keys
				eid = colliding[rng.IntN(len(colliding))]
			case k < 10: // a visitor: one id, then gone for a while
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
		if seed == 1 && cap(got.origins) <= idCacheBlock {
			t.Fatalf("seed 1: the origin table has room for %d origins: it never outgrew its first block", cap(got.origins))
		}
	}
}

// collidingIDs returns ids whose hashes under seed are equal in every
// bit, found by the birthday bound: two pairs each of ids of two
// origins with seq 0 (with a seq-1 id of each, so either origin can be
// known when the other's id arrives), of ids of origin o whose seqs
// differ in their low half only and in their high half only, and of
// ids of o in two origin entries (seq halves) whose origin-table hashes
// are equal.
func collidingIDs(seed maphash.Seed, o NodeID) []EventID {
	name := func(i uint64) NodeID { return NodeID(fmt.Sprintf("c%d", i)) }
	oh := originHash(seed, o)
	var ids []EventID
	for _, p := range collisions(func(i uint64) uint32 { return hashID(seed, EventID{Origin: name(i)}) }) {
		for _, i := range p {
			ids = append(ids, EventID{Origin: name(i)}, EventID{Origin: name(i), Seq: 1})
		}
	}
	for _, p := range collisions(func(k uint64) uint32 { return idHash(oh, k) }) {
		ids = append(ids, EventID{Origin: o, Seq: p[0]}, EventID{Origin: o, Seq: p[1]})
	}
	for _, p := range collisions(func(k uint64) uint32 { return idHash(oh, 5|k<<32) }) {
		ids = append(ids, EventID{Origin: o, Seq: 5 | p[0]<<32}, EventID{Origin: o, Seq: 5 | p[1]<<32})
	}
	for _, p := range collisions(func(k uint64) uint32 { return originKey(oh, uint32(k)) }) {
		ids = append(ids, EventID{Origin: o, Seq: 9 | p[0]<<32}, EventID{Origin: o, Seq: 9 | p[1]<<32})
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

// checkInvariants validates the ring, its table and the origin table:
// every remembered id stores its hash and is found through the table at
// its ring position under its tag, and the table holds nothing else;
// every origin entry is either live — its count equal to its ids in the
// ring, never zero, its hash its key's, found through the origin table
// — or free and on the free list; and the origin table holds the live
// entries alone.
func (c *IDCache) checkInvariants() error {
	if c.size > len(c.ring) || c.size > c.capacity || c.size > 0 && c.head >= len(c.ring) || c.size < c.capacity && c.head != 0 {
		return fmt.Errorf("size %d, head %d: a ring of %d for a capacity of %d", c.size, c.head, len(c.ring), c.capacity)
	}
	ids := make([]int, len(c.origins))
	inRing := make(map[int]bool, c.size)
	for i := 0; i < c.size; i++ {
		p := (c.head + i) % len(c.ring)
		e := c.ring[p]
		if int(e.origin) >= len(c.origins) || c.origins[e.origin].live == 0 {
			return fmt.Errorf("ring position %d names origin entry %d, which is not live", p, e.origin)
		}
		ids[e.origin]++
		inRing[p] = true
		o := c.origins[e.origin]
		id := EventID{Origin: o.name, Seq: uint64(o.hi)<<32 | uint64(e.lo)}
		h := c.index.hashes[p]
		if want := hashID(c.seed, id); h != want {
			return fmt.Errorf("ring position %d keeps hash %#x for %s, want %#x", p, h, id, want)
		}
		found := -1
		for q, s := c.index.next(h&c.index.mask, h); q >= 0 && found < 0; q, s = c.index.next(s, h) {
			if q == p {
				found = q
			}
		}
		if found != p || !c.contains(id, h) {
			return fmt.Errorf("%s at ring position %d is not found there", id, p)
		}
	}
	if err := checkTable(&c.index, inRing); err != nil {
		return fmt.Errorf("ring table: %w", err)
	}
	free := make(map[int]bool)
	for f := c.free; f != 0; f = c.origins[f-1].hi {
		o := int(f - 1)
		if o >= len(c.origins) || free[o] {
			return fmt.Errorf("free list: entry %d out of range or listed twice", o)
		}
		free[o] = true
		if e := c.origins[o]; e.live != 0 || e.name != "" {
			return fmt.Errorf("free entry %d holds %+v", o, e)
		}
	}
	live := make(map[int]bool)
	for o, e := range c.origins {
		if free[o] {
			continue
		}
		live[o] = true
		if e.live == 0 || int(e.live) != ids[o] {
			return fmt.Errorf("origin %q (entry %d) counts %d ids, the ring holds %d", e.name, o, e.live, ids[o])
		}
		oh := originHash(c.seed, e.name)
		if h := c.originIdx.hashes[o]; h != originKey(oh, e.hi) {
			return fmt.Errorf("origin %q/%d (entry %d) keeps hash %#x, want %#x", e.name, e.hi, o, h, originKey(oh, e.hi))
		}
		if got := c.findOrigin(e.name, e.hi, oh); got != o {
			return fmt.Errorf("origin %q/%d at entry %d is found at %d", e.name, e.hi, o, got)
		}
	}
	if len(c.origins) > 0 {
		if err := checkTable(&c.originIdx, live); err != nil {
			return fmt.Errorf("origin table: %w", err)
		}
	}
	return nil
}

// checkTable requires t to hold exactly the positions in want, each
// tagged with the bits of its hash above the position bits.
func checkTable(t *idTable, want map[int]bool) error {
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
// empty one almost nothing whatever its capacity, a filled one 12 bytes
// per id plus a half-full table and its origins, reached in two growth
// steps — the first block at the first id, the full capacity at the
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
	for i := 0; i <= idCacheBlock; i++ {
		room := len(c.ring)
		c.Add(id("x", uint64(i)))
		if len(c.ring) != room {
			grewAt = append(grewAt, i)
		}
	}
	if want := []int{0, idCacheBlock}; !slices.Equal(grewAt, want) {
		t.Fatalf("the cache grew at ids %v, want only at %v", grewAt, want)
	}
	seq := uint64(idCacheBlock + 1)
	allocs := testing.AllocsPerRun(2*capacity, func() {
		c.Add(id("x", seq))
		seq++
	})
	if allocs != 0 || c.Len() != capacity {
		t.Fatalf("after its %dth id the cache allocates %v times per Add (len %d), want 0", idCacheBlock+1, allocs, c.Len())
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - start; total > 100<<10 {
		t.Fatalf("a filled cache of %d ids allocated %d B in all, want at most 100 KB", capacity, total)
	}
}

// TestIDCacheForgedOrigins floods a cache with ids each from a fresh
// origin, the worst case for the origin table: it grows to one entry
// per id and no further, and the cache stays within its documented
// bound of 72 bytes per id — allocating at most twice that on the way,
// by doubling — and allocates nothing once full, however long the
// flood goes on. After as many ids again from one honest origin, the
// forged origins are gone and the table holds one.
func TestIDCacheForgedOrigins(t *testing.T) {
	const capacity = 1800
	names := make([]NodeID, 2*capacity)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("forged-%d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := mustCache(t, capacity)
	for _, name := range names[:capacity] {
		c.Add(EventID{Origin: name, Seq: 1})
	}
	runtime.ReadMemStats(&after)
	const bound = 72 * capacity
	if total := after.TotalAlloc - before.TotalAlloc; total > 2*bound {
		t.Fatalf("%d forged origins allocated %d B, want at most %d", capacity, total, 2*bound)
	}
	footprint := cap(c.ring)*int(unsafe.Sizeof(cachedID{})) + 4*(len(c.index.hashes)+len(c.index.slots)) +
		cap(c.origins)*int(unsafe.Sizeof(originEntry{})) + 4*(len(c.originIdx.hashes)+len(c.originIdx.slots))
	if footprint > bound || cap(c.origins) > capacity {
		t.Fatalf("%d forged origins: footprint %d B (room for %d origins), want at most %d", capacity, footprint, cap(c.origins), bound)
	}
	if n := liveOrigins(c); n != capacity {
		t.Fatalf("%d origins live after %d forged ids, want %d", n, capacity, capacity)
	}
	i := capacity
	if allocs := testing.AllocsPerRun(capacity-1, func() { c.Add(EventID{Origin: names[i], Seq: 1}); i++ }); allocs != 0 {
		t.Fatalf("a full cache allocates %v times per forged origin, want 0", allocs)
	}
	for seq := range uint64(capacity) {
		c.Add(id("honest", seq))
	}
	if n := liveOrigins(c); n != 1 {
		t.Fatalf("%d origins live after %d ids of one origin, want 1", n, capacity)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// liveOrigins counts the origin entries with ids in the ring.
func liveOrigins(c *IDCache) int {
	n := 0
	for _, e := range c.origins {
		if e.live > 0 {
			n++
		}
	}
	return n
}
