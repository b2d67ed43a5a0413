package gossip

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// footprint is what r holds on the heap: windows, table, words and
// stamps.
func (r *replay) footprint() int {
	return cap(r.wins)*int(unsafe.Sizeof(window{})+unsafe.Sizeof(links{})) + 4*(len(r.index.hashes)+len(r.index.slots)) + 12*len(r.words)
}

// replayAdd adds id, pushed, at round now to r, hashing with seed.
func replayAdd(r *replay, seed maphash.Seed, id EventID, now uint32) int {
	return r.add(id, originHash(seed, id.Origin), now, true)
}

// remembers reports whether n's replay window of id's origin counts id
// as seen: accepted, or under the floor.
func remembers(n *Node, id EventID) bool {
	return n.seen.contains(id, originHash(n.buf.seed, id.Origin))
}

// TestReplayExactlyOnce: an accepted id is refused for as long as its
// origin's window lives, however far its origin's seqs move on within
// the ring's bound, and in whatever order they arrive.
func TestReplayExactlyOnce(t *testing.T) {
	seed := maphash.MakeSeed()
	r := newReplay(3600, 10)
	rng := rand.New(rand.NewPCG(3, 4))
	seqs := rng.Perm(2000)
	for _, s := range seqs {
		if v := replayAdd(r, seed, id("x", uint64(s)), 0); v != idNew {
			t.Fatalf("seq %d: verdict %d at first sight, want new", s, v)
		}
	}
	for s := range uint64(2000) {
		if v := replayAdd(r, seed, id("x", s), 0); v != idSeen {
			t.Fatalf("seq %d: verdict %d again, want seen", s, v)
		}
		if !r.contains(id("x", s), originHash(seed, "x")) {
			t.Fatalf("seq %d: not contained", s)
		}
	}
	if r.contains(id("x", 2000), originHash(seed, "x")) || r.contains(id("y", 0), originHash(seed, "y")) {
		t.Fatal("an id never added is contained")
	}
}

// TestReplayHorizon: the floor moves past a run only once the newest
// seq of a run above it was first seen H = 2·(MaxAge+1) rounds before,
// and what falls under it is refused as stale and still counts as seen.
func TestReplayHorizon(t *testing.T) {
	seed := maphash.MakeSeed()
	const maxAge, h = 2, 6
	oh := originHash(seed, "x")
	r := newReplay(256, maxAge) // rings of up to 4 words
	replayAdd(r, seed, id("x", 0), 0)
	replayAdd(r, seed, id("x", 64), 0)  // word 1's newest, first seen at round 0
	replayAdd(r, seed, id("x", 128), 1) // word 2's, at round 1
	replayAdd(r, seed, id("x", 256), h) // word 4: past the ring, which moves up
	if lo := r.wins[r.find("x", oh)].lo; lo != 1 {
		t.Fatalf("floor at word %d, want 1: word 1's newest is %d rounds old, word 2's %d", lo, h, h-1)
	}
	if !r.contains(id("x", 5), oh) {
		t.Fatal("seq 5 is unseen under the floor")
	}
	if v := replayAdd(r, seed, id("x", 5), h); v != idStale {
		t.Fatalf("seq 5 under the floor: verdict %d, want stale", v)
	}
	if v := replayAdd(r, seed, id("x", 100), h); v != idNew {
		t.Fatalf("seq 100, above the floor: verdict %d, want new", v)
	}

	// A run's own newest does not let the floor past the run: seq 0 is
	// h rounds old, but seq 64 above it only h-1.
	r = newReplay(4096, maxAge)
	replayAdd(r, seed, id("x", 0), 0)
	replayAdd(r, seed, id("x", 64), h-1)
	replayAdd(r, seed, id("x", 32*64), h)
	if v := replayAdd(r, seed, id("x", 1), h); v != idNew {
		t.Fatalf("seq 1, under a run first seen 1 round before: verdict %d, want new", v)
	}
}

// TestReplayRestartedOrigin: an origin that restarts at seq 0 is
// refused while its window lives — until its newest id is H rounds
// old — and heard again after, by gossip. A recovery response of an id
// the window holds is refused however old: the store it comes from
// outlives the horizon. Through a Node, whose rounds are the window's
// clock.
func TestReplayRestartedOrigin(t *testing.T) {
	p := testParams()
	p.MaxAge = 2
	const h = 2 * (2 + 1)
	delivered := 0
	n, err := NewNode("a", p, staticPeers{"a", "b"}, rand.New(rand.NewPCG(1, 1)),
		WithDeliver(func(e Event) {
			if e.ID.Origin == "x" && e.ID.Seq == 0 {
				delivered++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]Event, 10)
	for i := range before {
		before[i] = mkEvent("x", uint64(i), 0)
	}
	n.Receive(&Message{From: "x", Events: before})
	for range 2 * h {
		n.Tick()
	}
	n.Receive(&Message{Kind: KindRecoveryResponse, From: "y", Events: []Event{mkEvent("x", 5, 0)}})
	if !remembers(n, id("x", 5)) || n.Stats().Delivered != 10 {
		t.Fatalf("an idle window let a recovered copy through: %d delivered", n.Stats().Delivered)
	}
	n.Receive(&Message{From: "x", Events: []Event{mkEvent("x", 10, 0)}}) // x goes on
	for round := 1; round <= h; round++ {
		n.Tick()
		n.Receive(&Message{From: "x", Events: []Event{mkEvent("x", 0, 0)}})
		if want := map[bool]int{false: 1, true: 2}[round == h]; delivered != want {
			t.Fatalf("round %d: seq 0 delivered %d times, want %d", round, delivered, want)
		}
	}
	if st := n.Stats(); st.DroppedStale != 0 {
		t.Fatalf("%d stale refusals, want 0", st.DroppedStale)
	}
}

// TestReplayStaleIsCounted: a seq under a forced floor is refused and
// counted in DroppedStale, not delivered and not counted a duplicate.
func TestReplayStaleIsCounted(t *testing.T) {
	p := testParams()
	p.MaxEvents, p.MaxEventIDs = 4, 64 // a ring of one word
	delivered := 0
	n, err := NewNode("a", p, staticPeers{"a", "b"}, rand.New(rand.NewPCG(1, 1)),
		WithDeliver(func(Event) { delivered++ }))
	if err != nil {
		t.Fatal(err)
	}
	n.Receive(&Message{From: "x", Events: []Event{mkEvent("x", 0, 0)}})
	n.Receive(&Message{From: "x", Events: []Event{mkEvent("x", 200, 0)}}) // forces the floor to word 3
	n.Receive(&Message{From: "x", Events: []Event{mkEvent("x", 1, 0)}})
	st := n.Stats()
	if delivered != 2 || st.DroppedStale != 1 || st.Duplicates != 0 {
		t.Fatalf("%d delivered, %d stale, %d duplicates: want 2, 1 and 0", delivered, st.DroppedStale, st.Duplicates)
	}
	if !remembers(n, id("x", 1)) || !remembers(n, id("x", 100)) {
		t.Fatal("seqs under the floor are not seen")
	}
}

// TestReplayLeastRecentlyActiveForgotten: past the bound of capacity
// windows, a new origin takes the window of the least recently active
// one; under it, an idle window stays.
func TestReplayLeastRecentlyActiveForgotten(t *testing.T) {
	seed := maphash.MakeSeed()
	r := newReplay(3, 10)
	for i, o := range []string{"a", "b", "c"} {
		replayAdd(r, seed, id(o, 0), uint32(i))
	}
	replayAdd(r, seed, id("a", 1), 3) // a is now the most recent
	replayAdd(r, seed, id("d", 0), 4) // takes b's window
	for o, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if got := r.find(NodeID(o), originHash(seed, NodeID(o))) >= 0; got != want {
			t.Fatalf("origin %s has a window: %v, want %v", o, got, want)
		}
	}
	r = newReplay(100, 2)
	replayAdd(r, seed, id("a", 0), 0)
	replayAdd(r, seed, id("b", 0), 6) // a is idle, and keeps its window under the bound
	if len(r.wins) != 2 || !r.contains(id("a", 0), originHash(seed, "a")) {
		t.Fatalf("%d windows, a/0 seen %v: want both windows, a/0 seen", len(r.wins), r.contains(id("a", 0), originHash(seed, "a")))
	}
}

// TestReplayWordPressure: when the rings would outgrow their words'
// bound, the least recently active windows are forgotten and their
// slots reused, and the rest keep every id.
func TestReplayWordPressure(t *testing.T) {
	seed := maphash.MakeSeed()
	const capacity = 256 // rings of up to 4 words, 264 words in all
	r := newReplay(capacity, 10)
	for o := range 200 {
		origin := NodeID(fmt.Sprintf("o%d", o))
		for w := range uint64(4) {
			replayAdd(r, seed, id(string(origin), w*64), 0)
		}
		if err := r.check(); err != nil {
			t.Fatalf("origin %d: %v", o, err)
		}
		if fp := r.footprint(); fp > 72*capacity {
			t.Fatalf("origin %d: footprint %d B, past %d", o, fp, 72*capacity)
		}
	}
	if r.count >= 200 {
		t.Fatalf("%d windows: want some forgotten", r.count)
	}
	for o := 199; o > 199-r.count; o-- {
		origin := fmt.Sprintf("o%d", o)
		for w := range uint64(4) {
			if v := replayAdd(r, seed, id(origin, w*64), 0); v != idSeen {
				t.Fatalf("%s/%d in a live window: verdict %d, want seen", origin, w*64, v)
			}
		}
	}
}

// TestReplayFootprint pins what the windows cost: an empty set nothing,
// one honest origin the first slabs, 6.4 KB, however long it runs, and a forged-origin flood at most 72 bytes per id of capacity
// (the old FIFO's documented worst case) — allocating at most twice
// that on the way, by doubling — and nothing once full, however long
// the flood goes on.
func TestReplayFootprint(t *testing.T) {
	seed := maphash.MakeSeed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := newReplay(3600, 10)
	if r.footprint() != 0 {
		t.Fatalf("an empty set holds %d B", r.footprint())
	}
	// One origin, 12 ids a round for 100 rounds.
	for round := range uint32(100) {
		for j := range uint64(12) {
			replayAdd(r, seed, id("x", uint64(round)*12+j), round)
		}
	}
	if fp := r.footprint(); fp > 8<<10 {
		t.Fatalf("one origin at 12 ids a round: %d B, want at most 8 KB", fp)
	}
	t.Logf("one origin: %d B", r.footprint())
	seq, round := uint64(1200), uint32(100)
	allocs := testing.AllocsPerRun(1000, func() {
		replayAdd(r, seed, id("x", seq), round)
		if seq++; seq%12 == 0 {
			round++
		}
	})
	if allocs != 0 {
		t.Fatalf("one origin allocates %v times per id, want 0", allocs)
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total > 8<<10 {
		t.Fatalf("one origin's window allocated %d B in all, want at most 8 KB", total)
	}

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
		{"one origin, seqs 64 apart", func(i int) EventID { return EventID{Origin: "sparse", Seq: uint64(i) << 6} }},
	} {
		runtime.ReadMemStats(&before)
		r := newReplay(capacity, 10)
		for i := range capacity {
			replayAdd(r, seed, flood.id(i), 0)
		}
		runtime.ReadMemStats(&after)
		const bound = 72 * capacity
		if total := after.TotalAlloc - before.TotalAlloc; total > 2*bound {
			t.Fatalf("%s: %d ids allocated %d B, want at most %d", flood.name, capacity, total, 2*bound)
		}
		if fp := r.footprint(); fp > bound || cap(r.wins) > capacity {
			t.Fatalf("%s: footprint %d B (room for %d windows), want at most %d", flood.name, fp, cap(r.wins), bound)
		}
		t.Logf("%s: %d B per id of capacity", flood.name, r.footprint()/capacity)
		i := capacity
		if allocs := testing.AllocsPerRun(2*capacity-1, func() { replayAdd(r, seed, flood.id(i), 0); i++ }); allocs != 0 {
			t.Fatalf("%s: a full set allocates %v times per id, want 0", flood.name, allocs)
		}
		if fp := r.footprint(); fp > bound {
			t.Fatalf("%s: footprint %d B after the flood, want at most %d", flood.name, fp, bound)
		}
		if err := r.check(); err != nil {
			t.Fatalf("%s: %v", flood.name, err)
		}
	}
}

// TestReplayWindowAllocFree: honest traffic — origins that come and go,
// a few ids each a round, late copies among them — allocates nothing
// once the windows are warm.
func TestReplayWindowAllocFree(t *testing.T) {
	seed := maphash.MakeSeed()
	r := newReplay(3600, 10)
	origins := make([]NodeID, 64)
	for i := range origins {
		origins[i] = NodeID(fmt.Sprintf("n%03d", i))
	}
	next := make([]uint64, len(origins))
	rng := rand.New(rand.NewPCG(5, 6))
	round := uint32(0)
	step := func() {
		round++
		for range 200 {
			o := rng.IntN(len(origins) / 2)
			if round%100 >= 50 {
				o += len(origins) / 2 // the other half is active for a while
			}
			s := next[o]
			next[o]++
			replayAdd(r, seed, EventID{Origin: origins[o], Seq: s}, round)
			if s > 3 {
				replayAdd(r, seed, EventID{Origin: origins[o], Seq: s - 3}, round) // a late copy
			}
		}
	}
	for range 300 {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm windows allocate %v times per round, want 0", allocs)
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

// check verifies r's structure: the list holds every window in use once,
// newest first; the table finds each; the rings are disjoint and inside
// the slab; live counts their words.
func (r *replay) check() error {
	seen := make(map[int]bool)
	var prev uint32
	last := ^uint32(0)
	for i := int(r.head) - 1; i >= 0; i = int(r.links[i].next) - 1 {
		w := &r.wins[i]
		if seen[i] {
			return fmt.Errorf("window %d twice in the list", i)
		}
		seen[i] = true
		if r.links[i].prev != prev {
			return fmt.Errorf("window %d: prev %d, want %d", i, r.links[i].prev, prev)
		}
		if last != ^uint32(0) && int32(last-w.newest) < 0 {
			return fmt.Errorf("window %d (round %d) after one of round %d", i, w.newest, last)
		}
		last, prev = w.newest, uint32(i)+1
		found := false
		h := r.index.hashes[i]
		for j, s := r.index.next(h&r.index.mask, h); j >= 0 && !found; j, s = r.index.next(s, h) {
			found = j == i
		}
		if !found {
			return fmt.Errorf("window %d is not in the table", i)
		}
	}
	if r.tail != prev {
		return fmt.Errorf("tail %d, want %d", r.tail, prev)
	}
	if len(seen) != r.count {
		return fmt.Errorf("%d windows listed, count %d", len(seen), r.count)
	}
	used := make([]bool, len(r.words))
	live := 0
	for i := range seen {
		off, mask := r.wins[i].ring()
		if off+int(mask)+1 > r.top || r.top > len(r.words) {
			return fmt.Errorf("window %d: ring [%d, %d) past the top %d of %d", i, off, off+int(mask)+1, r.top, len(r.words))
		}
		for p := off; p <= off+int(mask); p++ {
			if used[p] {
				return fmt.Errorf("word %d in two rings", p)
			}
			used[p] = true
		}
		live += int(mask) + 1
	}
	if live != r.live {
		return fmt.Errorf("rings hold %d words, live %d", live, r.live)
	}
	return nil
}

// FuzzReplayWindow drives random (origin, seq, round, pushed or
// recovered) operations against a map-based model of the rules: an
// accepted id is refused while its window lives; an id may be refused
// as stale only under a seq of its origin first seen H rounds before;
// what was refused as stale stays refused; a window resets only for a
// pushed id it would refuse once its newest id is H rounds old, and
// always then; the footprint stays within 72 bytes per id of capacity
// and two rings of maxSpan words. An odd first byte picks a capacity of
// 3, too small for the four origins and for rings past one word: then
// windows may be forgotten and floors forced up, and only an accepted
// id refused again, or accepted again while its window lives, fails.
//
// At every step the two reads recovery makes are held to the model too
// (checkReads): the watermarks, and the unseen ids under a bound that
// the op's seq and its top bits pick.
func FuzzReplayWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 8, 1, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 24, 200, 15, 0, 1, 0, 24, 0, 0, 1, 0, 0, 2, 5, 0})
	f.Add([]byte{1, 255, 15, 57, 0, 0, 2, 64, 0, 58, 1, 0, 3, 0, 0, 1, 255, 15})
	f.Add([]byte{0, 5, 0, 24, 5, 0, 24, 5, 16, 0, 5, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 0, 200, 1, 0, 1, 0, 0})
	// A restarted origin: a run with gaps, H rounds idle, seq 0 again by
	// gossip, then reads with a bound past the old run.
	f.Add([]byte{0, 0, 0, 0, 0, 3, 0, 0, 9, 0, 0, 70, 0, 24, 0, 0, 228, 100, 0, 0, 2, 0})
	// A forced floor: a ring of one word, seq 200 forces it past seqs 0
	// and 3; seqs 1 and 150 are refused stale, and the reads ask from
	// the floor up.
	f.Add([]byte{1, 0, 0, 0, 0, 3, 0, 0, 200, 0, 0, 1, 0, 228, 250, 0, 5, 150, 0})
	const maxAge, h = 2, 6
	type model = replayModel
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 3*1024+1)]
		capacity, tight := 4096, len(ops)%3 == 1 && ops[0]&1 == 1
		if len(ops)%3 == 1 {
			if tight {
				capacity = 3
			}
			ops = ops[1:]
		}
		seed := maphash.MakeSeed()
		r := newReplay(capacity, maxAge)
		models := map[NodeID]*model{}
		now := uint32(0)
		justified := func(m *model, s uint64) bool {
			for q, at := range m.seen {
				if q > s && now-at >= h {
					return true
				}
			}
			return false
		}
		for len(ops) >= 3 {
			checkReads(t, r, seed, models, ops[0], uint64(ops[1])|uint64(ops[2]&0x0f)<<8)
			b, s := ops[0], uint64(ops[1])|uint64(ops[2]&0x0f)<<8
			pushed := ops[2]&0x10 == 0
			ops = ops[3:]
			now += []uint32{0, 0, 1, h}[b>>3&3]
			origin := NodeID([]string{"a", "b", "c", "d"}[b&3])
			oh := originHash(seed, origin)
			m := models[origin]
			if m == nil {
				m = &model{seen: map[uint64]uint32{}}
			}
			_, seen := m.seen[s]
			refuse := seen || s < m.stale
			if b&4 != 0 {
				got := r.contains(EventID{Origin: origin, Seq: s}, oh)
				if refuse && !got || !refuse && got && !justified(m, s) && !tight {
					t.Fatalf("contains %s/%d at round %d = %v (seen %v, stale under %d)", origin, s, now, got, seen, m.stale)
				}
				continue
			}
			idle := models[origin] != nil && now-m.newest >= h
			restarts := r.restarts
			v := r.add(EventID{Origin: origin, Seq: s}, oh, now, pushed)
			if r.restarts != restarts {
				if !pushed || !idle || v != idNew {
					t.Fatalf("%s/%d at round %d (pushed %v, idle %v) reset its window, verdict %d", origin, s, now, pushed, idle, v)
				}
				models[origin] = &model{seen: map[uint64]uint32{s: now}, newest: now}
				continue
			}
			models[origin] = m
			switch {
			case refuse && pushed && idle:
				t.Fatalf("%s/%d at round %d refused by an idle window, verdict %d", origin, s, now, v)
			case refuse && v == idNew:
				t.Fatalf("%s/%d at round %d accepted again", origin, s, now)
			case !refuse && v == idSeen:
				t.Fatalf("%s/%d at round %d refused as seen, never accepted", origin, s, now)
			case !refuse && v == idStale && !justified(m, s) && !tight:
				t.Fatalf("%s/%d at round %d refused as stale, no newer seq is %d rounds old", origin, s, now, h)
			case v == idNew:
				m.seen[s], m.newest = now, now
			case v == idStale:
				m.stale = max(m.stale, s+1)
			}
			if fp := r.footprint(); fp > 72*capacity+24*int(r.maxSpan) {
				t.Fatalf("footprint %d B, past %d", fp, 72*capacity+24*int(r.maxSpan))
			}
			for o := range models {
				if r.find(o, originHash(seed, o)) < 0 {
					if !tight {
						t.Fatalf("window of %s forgotten with room for every origin", o)
					}
					delete(models, o)
				}
			}
		}
		checkReads(t, r, seed, models, 0xe0, 4095)
		if err := r.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// replayModel is FuzzReplayWindow's model of one origin's window.
type replayModel struct {
	seen   map[uint64]uint32 // seq -> round first seen
	stale  uint64            // every seq under it was refused as stale
	newest uint32
}

// checkReads holds r's watermarks and unseen ids to the models of the
// live windows. Each watermark names one window and is its highest
// accepted seq, the most recently active first. The unseen ids under
// s+70, at most k = 1 + 9·(b>>5), are exactly the seqs from the ring's
// first word up that the model has not accepted, ascending: an
// unfloored ring starts at the word of the lowest accepted seq, and a
// floor sits above every seq refused as stale. An origin without a
// window yields the seqs of the bound's word under the bound, as an
// empty window opened there would, and the reads open no window.
func checkReads(t *testing.T, r *replay, seed maphash.Seed, models map[NodeID]*replayModel, b byte, s uint64) {
	t.Helper()
	windows := r.count
	marks := r.appendWatermarks(nil, 8)
	if len(marks) != len(models) {
		t.Fatalf("%d watermarks %v for %d live windows", len(marks), marks, len(models))
	}
	for j, wm := range marks {
		m := models[wm.Origin]
		if m == nil {
			t.Fatalf("watermark %v of an origin with no window", wm)
		}
		if j > 0 && m.newest > models[marks[j-1].Origin].newest {
			t.Fatalf("watermarks %v are not most recently active first", marks)
		}
		if top := slices.Max(slices.Collect(maps.Keys(m.seen))); wm.Seq != top {
			t.Fatalf("watermark %v, model's highest accepted seq %d", wm, top)
		}
	}
	if len(marks) > 0 {
		if one := r.appendWatermarks(nil, 1); !slices.Equal(one, marks[:1]) {
			t.Fatalf("one watermark %v, want %v", one, marks[:1])
		}
	}
	below, k := s+70, 1+9*int(b>>5)
	for _, origin := range []NodeID{"a", "b", "c", "d"} {
		oh := originHash(seed, origin)
		got := r.appendUnseen(nil, origin, oh, below, k)
		m := models[origin]
		start := (below - 1) &^ 63
		if m == nil {
			if r.find(origin, oh) >= 0 {
				t.Fatalf("%s has no model but a window", origin)
			}
			m = &replayModel{}
		} else if w := &r.wins[r.find(origin, oh)]; w.meta&metaFloored == 0 {
			start = w.lo << 6
			if low := slices.Min(slices.Collect(maps.Keys(m.seen))); start != low&^63 {
				t.Fatalf("%s: unfloored ring starts at seq %d, lowest accepted %d", origin, start, low)
			}
		} else if start = w.lo << 6; start < m.stale {
			t.Fatalf("%s: floor %d under seq %d refused as stale", origin, start, m.stale-1)
		}
		var want []EventID
		for q := start; q < below && len(want) < k; q++ {
			if _, ok := m.seen[q]; !ok {
				want = append(want, EventID{Origin: origin, Seq: q})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: unseen under %d, at most %d: %v, want %v", origin, below, k, got, want)
		}
		for _, id := range got {
			if id.Seq < m.stale {
				t.Fatalf("%s: unseen %d under the floor %d", origin, id.Seq, m.stale)
			}
		}
	}
	if r.count != windows {
		t.Fatalf("the reads took the windows from %d to %d", windows, r.count)
	}
}
