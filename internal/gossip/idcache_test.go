package gossip

import (
	"fmt"
	"math"
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
// evicted, and two patterns aimed at the hash: one origin whose seqs
// step by a power of two, and many origins sharing one seq — and
// requires identical answers, lengths and oldest-first listings.
func TestIDCacheMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1dcace))
		capacity := 1 + rng.IntN(4096)
		if seed%4 == 0 {
			capacity = 1 + rng.IntN(80) // around the first block's edge
		}
		origins := make([]NodeID, 1+rng.IntN(300))
		for i := range origins {
			origins[i] = NodeID(fmt.Sprintf("o%03d", i))
		}
		step := uint64(1) << rng.IntN(48)
		got := mustCache(t, capacity)
		want, err := newRefIDCache(capacity)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]uint64, len(origins))
		var added []EventID
		var stride, shared uint64
		for op := 0; op < 5000; op++ {
			var eid EventID
			switch k := rng.IntN(10); {
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
			if op%97 == 0 && !slices.Equal(got.AppendIDs(nil), want.AppendIDs(nil)) {
				t.Fatalf("seed %d op %d: AppendIDs differs from the reference", seed, op)
			}
		}
		if !slices.Equal(got.AppendIDs(nil), want.AppendIDs(nil)) {
			t.Fatalf("seed %d: final AppendIDs differs from the reference", seed)
		}
	}
}

// TestIDCacheFootprint pins what a cache costs for what it holds: an
// empty one almost nothing whatever its capacity, a filled one its ids
// plus a half-full table, reached in two growth steps — the first
// block at the first id, the full capacity at the 65th — and nothing
// allocated after that, however long it keeps evicting.
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
	if total := after.TotalAlloc - start; total > 160<<10 {
		t.Fatalf("a filled cache of %d ids allocated %d B in all, want at most 160 KB", capacity, total)
	}
}
