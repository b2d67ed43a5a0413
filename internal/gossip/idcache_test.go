package gossip

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
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
	slot, added := c.Add(id("a", 1))
	if !added {
		t.Fatal("first Add returned false")
	}
	if again, added := c.Add(id("a", 1)); added || again != slot {
		t.Fatalf("duplicate Add returned slot %d, %v; want %d, false", again, added, slot)
	}
	if got := c.Slot(id("a", 1)); got != slot {
		t.Fatalf("Slot = %d, want %d", got, slot)
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
	// Re-adding an evicted id works and evicts the now-oldest (a/2),
	// taking its slot.
	oldest := c.Oldest()
	if slot, added := c.Add(id("a", 1)); !added || slot != oldest {
		t.Fatalf("re-add of evicted id returned slot %d, %v; want %d, true", slot, added, oldest)
	}
	if c.Contains(id("a", 2)) {
		t.Fatal("a/2 should have been evicted")
	}
	if got, want := c.list(), []EventID{id("a", 3), id("a", 4), id("a", 1)}; !slices.Equal(got, want) {
		t.Fatalf("ids = %v, want %v oldest first", got, want)
	}
}

// list returns the remembered identifiers, oldest to newest.
func (c *IDCache) list() []EventID {
	var ids []EventID
	for k := range c.size {
		ids = append(ids, c.ring[(c.head+k)%len(c.ring)])
	}
	return ids
}

func TestIDCacheRandomOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	c := mustCache(t, 32)
	var seq uint64
	window := make([]EventID, 0, 64) // newest-last shadow of expected content

	for op := 0; op < 4000; op++ {
		if rng.IntN(10) == 9 && len(window) > 0 {
			// Re-add a remembered id: a duplicate, nothing changes.
			if _, added := c.Add(window[rng.IntN(len(window))]); added {
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

// refIDCache is a FIFO of distinct ids in a slice, oldest first. The
// n-th id a cache takes in, counting from 0, takes ring slot n mod
// capacity: the slots fill in turn, and each id forgotten moves the
// next free slot on by one.
type refIDCache struct {
	capacity int
	ids      []EventID       // remembered, oldest first
	nth      map[EventID]int // n of each remembered id
	adds     int
}

func newRefIDCache(capacity int) *refIDCache {
	return &refIDCache{capacity: capacity, nth: make(map[EventID]int)}
}

func (c *refIDCache) slot(id EventID) int {
	if n, ok := c.nth[id]; ok {
		return n % c.capacity
	}
	return -1
}

func (c *refIDCache) add(id EventID) bool {
	if _, ok := c.nth[id]; ok {
		return false
	}
	if len(c.ids) == c.capacity {
		c.popOldest()
	}
	c.ids = append(c.ids, id)
	c.nth[id] = c.adds
	c.adds++
	return true
}

func (c *refIDCache) oldest() int {
	if len(c.ids) == 0 {
		return -1
	}
	return c.slot(c.ids[0])
}

func (c *refIDCache) popOldest() {
	if len(c.ids) > 0 {
		delete(c.nth, c.ids[0])
		c.ids = c.ids[1:]
	}
}

// TestIDCacheMatchesReference drives the cache and the reference with
// the same random Add/Slot/PopOldest calls — fresh ids, re-adds of ids
// long evicted, one origin whose seqs step by a power of two, many
// origins sharing one seq, ids whose hashes are equal in every bit (so
// they share the tag and the probe run, and only the key tells them
// apart), visiting origins whose ids all leave before they come back,
// and pops that empty the cache now and then — and requires identical
// answers, slots, lengths and oldest-first listings, and the cache's
// invariants.
func TestIDCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1dcace))
		capacity := 1 + rng.IntN(4096)
		if seed%4 == 0 {
			capacity = 1 + rng.IntN(16) // the ring wraps every few ids
		}
		origins := make([]NodeID, 1+rng.IntN(300))
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
		want := newRefIDCache(capacity)
		next := make([]uint64, len(origins))
		var added []EventID
		var stride, shared, visits uint64
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
			case k < 8: // many origins, one seq
				eid = EventID{Origin: origins[shared%uint64(len(origins))], Seq: shared / uint64(len(origins))}
				shared++
			case k < 9 && len(colliding) > 0: // one hash, two keys
				eid = colliding[rng.IntN(len(colliding))]
			case k < 10: // a visitor: one id, then gone for a while
				eid = EventID{Origin: NodeID(fmt.Sprintf("v%d", visits%5)), Seq: visits}
				visits++
			case k < 11: // the owner forgets the oldest, at times a run that may empty it
				pops := 1
				if rng.IntN(8) == 0 {
					pops = 1 + rng.IntN(capacity)
				}
				for range pops {
					if g, w := got.Oldest(), want.oldest(); g != w {
						t.Fatalf("seed %d op %d: Oldest = %d, reference %d", seed, op, g, w)
					}
					got.PopOldest()
					want.popOldest()
				}
				continue
			default: // small random space: many hits
				eid = EventID{Origin: origins[rng.IntN(len(origins))], Seq: uint64(rng.IntN(64))}
			}
			if rng.IntN(3) == 0 {
				if g, w := got.Slot(eid), want.slot(eid); g != w {
					t.Fatalf("seed %d op %d: Slot(%v) = %d, reference %d", seed, op, eid, g, w)
				}
				continue
			}
			g, w := got.Add(eid)
			if w != want.add(eid) || g != want.slot(eid) {
				t.Fatalf("seed %d op %d: Add(%v) = %d, %v; reference %d, %v", seed, op, eid, g, w, want.slot(eid), !w)
			}
			if w {
				added = append(added, eid)
			}
			if got.Len() != len(want.ids) {
				t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, got.Len(), len(want.ids))
			}
			if op%97 == 0 {
				if !slices.Equal(got.list(), want.ids) {
					t.Fatalf("seed %d op %d: ids differ from the reference", seed, op)
				}
				if err := got.checkInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if !slices.Equal(got.list(), want.ids) {
			t.Fatalf("seed %d: final ids differ from the reference", seed)
		}
		if err := got.checkInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// collidingIDs returns ids whose hashes under seed are equal in every
// bit, found by the birthday bound: two pairs each of ids of two
// origins with seq 0, and of ids of origin o.
func collidingIDs(seed maphash.Seed, o NodeID) []EventID {
	name := func(i uint64) NodeID { return NodeID(fmt.Sprintf("c%d", i)) }
	oh := originHash(seed, o)
	var ids []EventID
	for _, p := range collisions(func(i uint64) uint32 { return idHash(originHash(seed, name(i)), 0) }) {
		ids = append(ids, EventID{Origin: name(p[0])}, EventID{Origin: name(p[1])})
	}
	for _, p := range collisions(func(k uint64) uint32 { return idHash(oh, k) }) {
		ids = append(ids, EventID{Origin: o, Seq: p[0]}, EventID{Origin: o, Seq: p[1]})
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

// checkInvariants validates the ring and the table: head and size fit
// the ring, every remembered id is found at its slot and keeps its
// hash, and the table holds the live slots alone.
func (c *IDCache) checkInvariants() error {
	if c.size > len(c.ring) || c.head >= len(c.ring) {
		return fmt.Errorf("size %d, head %d: a ring of %d", c.size, c.head, len(c.ring))
	}
	live := make(map[int]bool)
	for i := 0; i < c.size; i++ {
		p := (c.head + i) % len(c.ring)
		live[p] = true
		id := c.ring[p]
		if h := c.hash(id); c.index.hashes[p] != h {
			return fmt.Errorf("%s at slot %d keeps hash %#x, want %#x", id, p, c.index.hashes[p], h)
		}
		if got := c.Slot(id); got != p {
			return fmt.Errorf("%s at slot %d is found at %d", id, p, got)
		}
	}
	for p, id := range c.ring {
		if !live[p] && id != (EventID{}) {
			return fmt.Errorf("empty slot %d holds %s", p, id)
		}
	}
	return checkTable(&c.index, live)
}

// checkTable requires t to hold exactly the positions in want, each
// tagged with the bits of its hash above the position bits, at a load
// of at most ¼ and no less than ⅛: the footprint tests count on those
// slots per id.
func checkTable(t *idTable, want map[int]bool) error {
	if slots, n := len(t.slots), len(t.hashes); slots < 4*n || slots >= 8*n {
		return fmt.Errorf("%d slots for %d positions, want the power of two in [%d, %d)", slots, n, 4*n, 8*n)
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

// maxIDCacheBytesPerID is what a cache may cost per id of capacity: 24
// bytes of ring, 4 of kept hash and at most 32 of table slots.
const maxIDCacheBytesPerID = 24 + 4 + 32

// idCacheFootprint is the bytes of a cache's ring and table.
func idCacheFootprint(c *IDCache) int {
	return 24*cap(c.ring) + 4*(len(c.index.hashes)+len(c.index.slots))
}

// TestIDCacheFootprint pins what a cache costs: NewIDCache allocates
// its ring and table at once, within maxIDCacheBytesPerID per id of
// capacity at the recovery digest's 128 and 256 ids, the store's 1,024
// and the benchmarks' 3,600, and nothing after that: filling it,
// evicting, popping and listing into a reused slice allocate nothing.
func TestIDCacheFootprint(t *testing.T) {
	for _, capacity := range []int{128, 256, 1024, 3600} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := mustCache(t, capacity)
		runtime.ReadMemStats(&after)
		// The allocator rounds up: a size class, or whole pages.
		bound := maxIDCacheBytesPerID*capacity + 4<<10
		if total := after.TotalAlloc - before.TotalAlloc; total > uint64(bound) {
			t.Fatalf("a cache of %d ids allocates %d B, want at most %d", capacity, total, bound)
		}
		if n := idCacheFootprint(c); n > maxIDCacheBytesPerID*capacity {
			t.Fatalf("a cache of %d ids holds %d B, want at most %d B per id", capacity, n, maxIDCacheBytesPerID)
		}
		t.Logf("capacity %d: %.1f B per id", capacity, float64(idCacheFootprint(c))/float64(capacity))
		seq := uint64(0)
		allocs := testing.AllocsPerRun(3*capacity, func() {
			c.Add(id("x", seq))
			if seq%7 == 0 {
				c.PopOldest()
			}
			seq++
		})
		if allocs != 0 {
			t.Fatalf("a cache of %d ids allocates %v times per Add, want 0", capacity, allocs)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIDCacheForgedOrigins floods a cache with ids each from a fresh
// origin, or all from one origin whose seqs step by 2³², the ids a
// forging peer would advertise: the cache costs what it cost empty,
// within maxIDCacheBytesPerID per id, allocates nothing however long
// the flood goes on, and after as many ids again from one honest origin
// holds those alone.
func TestIDCacheForgedOrigins(t *testing.T) {
	const capacity = 1800
	names := make([]NodeID, 3*capacity)
	for i := range names {
		names[i] = NodeID(fmt.Sprintf("forged-%d", i))
	}
	for _, flood := range []struct {
		name string
		id   func(i int) EventID
	}{
		{"forged origins", func(i int) EventID { return EventID{Origin: names[i], Seq: 1} }},
		{"one origin, seqs 2³² apart", func(i int) EventID { return EventID{Origin: "sparse", Seq: uint64(i) << 32} }},
	} {
		c := mustCache(t, capacity)
		empty := idCacheFootprint(c)
		i := 0
		if allocs := testing.AllocsPerRun(3*capacity-1, func() { c.Add(flood.id(i)); i++ }); allocs != 0 {
			t.Fatalf("%s: a cache allocates %v times per id, want 0", flood.name, allocs)
		}
		if n := idCacheFootprint(c); n != empty || n > maxIDCacheBytesPerID*capacity {
			t.Fatalf("%s: footprint %d B after the flood, %d empty; want at most %d B per id", flood.name, n, empty, maxIDCacheBytesPerID)
		}
		t.Logf("%s: %.1f B per id", flood.name, float64(empty)/capacity)
		for seq := range uint64(capacity) {
			c.Add(id("honest", seq))
		}
		for _, got := range c.list() {
			if got.Origin != "honest" {
				t.Fatalf("%s: %s outlived %d honest ids", flood.name, got, capacity)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
