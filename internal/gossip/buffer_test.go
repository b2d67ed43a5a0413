package gossip

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func mkEvent(origin string, seq uint64, age int) Event {
	return Event{ID: EventID{Origin: NodeID(origin), Seq: seq}, Age: age}
}

// testMaxAge is the max age of the buffers mustBuffer makes: above
// every age the tests below store, so none is clamped.
const testMaxAge = 30

func mustBuffer(t *testing.T, capacity int) *Buffer {
	t.Helper()
	b, err := NewBuffer(capacity, testMaxAge)
	if err != nil {
		t.Fatalf("NewBuffer(%d, %d): %v", capacity, testMaxAge, err)
	}
	return b
}

func mustAdd(t *testing.T, b *Buffer, ev Event) []Event {
	t.Helper()
	evicted, err := add(b, ev)
	if err != nil {
		t.Fatalf("Add(%v): %v", ev.ID, err)
	}
	return evicted
}

// add is Add with its victim, if any, as a slice of one.
func add(b *Buffer, ev Event) ([]Event, error) {
	victim, evicted, err := b.Add(ev)
	if !evicted {
		return nil, err
	}
	return []Event{victim}, err
}

// drainExpired collects what DropExpired gives up, oldest first; nil
// for nothing.
func drainExpired(b *Buffer) []Event {
	var expired []Event
	for ev, ok := b.DropExpired(); ok; ev, ok = b.DropExpired() {
		expired = append(expired, ev)
	}
	return expired
}

// setCapacity is SetCapacity followed by a drain of DropOverflow,
// oldest first; nil for nothing.
func setCapacity(b *Buffer, capacity int) ([]Event, error) {
	if err := b.SetCapacity(capacity); err != nil {
		return nil, err
	}
	var evicted []Event
	for ev, ok := b.DropOverflow(); ok; ev, ok = b.DropOverflow() {
		evicted = append(evicted, ev)
	}
	return evicted, nil
}

func TestNewBufferRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		if _, err := NewBuffer(capacity, testMaxAge); err == nil {
			t.Errorf("NewBuffer(%d): want error, got nil", capacity)
		}
	}
	for _, maxAge := range []int{0, -1, maxBufferAge + 1} {
		if _, err := NewBuffer(4, maxAge); err == nil {
			t.Errorf("NewBuffer(4, %d): want error, got nil", maxAge)
		}
	}
}

func TestBufferAddAndLen(t *testing.T) {
	b := mustBuffer(t, 3)
	for i := uint64(0); i < 3; i++ {
		if ev := mustAdd(t, b, mkEvent("a", i, 0)); len(ev) != 0 {
			t.Fatalf("unexpected eviction %v", ev)
		}
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferDuplicateAddFails(t *testing.T) {
	b := mustBuffer(t, 3)
	mustAdd(t, b, mkEvent("a", 1, 0))
	if _, _, err := b.Add(mkEvent("a", 1, 5)); err == nil {
		t.Fatal("duplicate Add: want error, got nil")
	}
}

func TestBufferEvictsHighestAgeFirst(t *testing.T) {
	b := mustBuffer(t, 3)
	mustAdd(t, b, mkEvent("a", 1, 5))
	mustAdd(t, b, mkEvent("a", 2, 2))
	mustAdd(t, b, mkEvent("a", 3, 7))
	evicted := mustAdd(t, b, mkEvent("a", 4, 1))
	if len(evicted) != 1 || evicted[0].ID.Seq != 3 {
		t.Fatalf("evicted %v, want event seq 3 (age 7)", evicted)
	}
}

func TestBufferEvictionTieBreaksOnResidency(t *testing.T) {
	b := mustBuffer(t, 2)
	mustAdd(t, b, mkEvent("a", 1, 4)) // resident longer
	mustAdd(t, b, mkEvent("a", 2, 4))
	evicted := mustAdd(t, b, mkEvent("a", 3, 0))
	if len(evicted) != 1 || evicted[0].ID.Seq != 1 {
		t.Fatalf("evicted %v, want the longest-resident of the tied ages (seq 1)", evicted)
	}
}

func TestBufferEvictsOldestEvenIfItIsTheNewcomer(t *testing.T) {
	b := mustBuffer(t, 2)
	mustAdd(t, b, mkEvent("a", 1, 1))
	mustAdd(t, b, mkEvent("a", 2, 2))
	// Newcomer is older than everything buffered: it is the victim.
	evicted := mustAdd(t, b, mkEvent("a", 3, 9))
	if len(evicted) != 1 || evicted[0].ID.Seq != 3 {
		t.Fatalf("evicted %v, want the old newcomer itself (seq 3)", evicted)
	}
	if b.Contains(EventID{Origin: "a", Seq: 3}) {
		t.Fatal("victim still buffered")
	}
}

func TestBufferRaiseAge(t *testing.T) {
	b := mustBuffer(t, 4)
	id := EventID{Origin: "a", Seq: 1}
	mustAdd(t, b, mkEvent("a", 1, 2))
	mustAdd(t, b, mkEvent("a", 2, 3))

	if !b.RaiseAge(id, 5) {
		t.Fatal("RaiseAge on present event returned false")
	}
	if age, _ := b.Age(id); age != 5 {
		t.Fatalf("age = %d, want 5", age)
	}
	// Lower ages never regress the stored age.
	b.RaiseAge(id, 1)
	if age, _ := b.Age(id); age != 5 {
		t.Fatalf("age regressed to %d after RaiseAge with lower value", age)
	}
	if b.RaiseAge(EventID{Origin: "zz", Seq: 9}, 4) {
		t.Fatal("RaiseAge on absent event returned true")
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The raised event is now the oldest and is evicted first.
	mustAdd(t, b, mkEvent("a", 3, 0))
	mustAdd(t, b, mkEvent("a", 4, 0))
	evicted := mustAdd(t, b, mkEvent("a", 5, 0))
	if len(evicted) != 1 || evicted[0].ID != id {
		t.Fatalf("evicted %v, want raised event %v", evicted, id)
	}
}

func TestBufferIncrementAges(t *testing.T) {
	b := mustBuffer(t, 4)
	mustAdd(t, b, mkEvent("a", 1, 0))
	mustAdd(t, b, mkEvent("a", 2, 3))
	b.IncrementAges()
	if age, _ := b.Age(EventID{Origin: "a", Seq: 1}); age != 1 {
		t.Fatalf("age = %d, want 1", age)
	}
	if age, _ := b.Age(EventID{Origin: "a", Seq: 2}); age != 4 {
		t.Fatalf("age = %d, want 4", age)
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferDropExpired(t *testing.T) {
	b, err := NewBuffer(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, b, mkEvent("a", 1, 2))
	mustAdd(t, b, mkEvent("a", 2, 9))
	mustAdd(t, b, mkEvent("a", 3, 10))
	mustAdd(t, b, mkEvent("a", 4, 15)) // stored as 11
	b.IncrementAges()

	expired := drainExpired(b)
	if len(expired) != 2 || expired[0].ID.Seq != 4 || expired[1].ID.Seq != 3 {
		t.Fatalf("expired %v, want seqs 4 and 3, oldest first", expired)
	}
	if expired[0].Age != 12 {
		t.Fatalf("the forged age expired as %d, want it clamped to 11 and aged once", expired[0].Age)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if drainExpired(b) != nil {
		t.Fatal("second DropExpired should remove nothing")
	}
}

// TestBufferClampsAges: an age above max age is stored as max age + 1
// on Add and RaiseAge alike, and a negative one as 0, so no stored age
// survives the next purge or overflows when ages advance.
func TestBufferClampsAges(t *testing.T) {
	b, err := NewBuffer(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, b, mkEvent("a", 1, math.MaxInt))
	mustAdd(t, b, mkEvent("a", 2, 3))
	mustAdd(t, b, mkEvent("a", 3, -5))
	b.RaiseAge(EventID{Origin: "a", Seq: 2}, math.MaxInt)
	for seq, want := range map[uint64]int{1: 11, 2: 11, 3: 0} {
		if age, _ := b.Age(EventID{Origin: "a", Seq: seq}); age != want {
			t.Fatalf("event %d stored at age %d, want %d", seq, age, want)
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	b.IncrementAges()
	if expired := drainExpired(b); len(expired) != 2 || expired[0].Age != 12 || expired[1].Age != 12 {
		t.Fatalf("expired %v, want both forged ages at 12", expired)
	}
}

func TestBufferSetCapacity(t *testing.T) {
	b := mustBuffer(t, 5)
	for i := uint64(0); i < 5; i++ {
		mustAdd(t, b, mkEvent("a", i, int(i)))
	}
	evicted, err := setCapacity(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 3 {
		t.Fatalf("evicted %d, want 3", len(evicted))
	}
	// Oldest first: ages 4, 3, 2.
	for i, want := range []int{4, 3, 2} {
		if evicted[i].Age != want {
			t.Fatalf("evicted[%d].Age = %d, want %d", i, evicted[i].Age, want)
		}
	}
	if b.Capacity() != 2 || b.Len() != 2 {
		t.Fatalf("capacity/len = %d/%d, want 2/2", b.Capacity(), b.Len())
	}
	if _, err := setCapacity(b, 0); err == nil {
		t.Fatal("SetCapacity(0): want error")
	}
	// Growing past the capacity the buffer was made with resizes the
	// index, at the same load, around the entries it holds.
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := setCapacity(b, 100); err != nil {
		t.Fatal(err)
	}
	if len(b.index.hashes) <= 5 {
		t.Fatalf("growing to 100 left the index %d positions", len(b.index.hashes))
	}
	for i := uint64(10); i < 110; i++ {
		mustAdd(t, b, mkEvent("b", i, 0))
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("after %d adds: %v", i-9, err)
		}
	}
	if b.Len() != 100 {
		t.Fatalf("len %d after 100 adds at capacity 100, want 100", b.Len())
	}
}

func TestBufferOldestUncounted(t *testing.T) {
	b := mustBuffer(t, 6)
	for i := uint64(0); i < 6; i++ {
		mustAdd(t, b, mkEvent("a", i, int(i)))
	}
	counted := map[EventID]struct{}{
		{Origin: "a", Seq: 5}: {}, // the oldest is already counted
	}
	scratch := make([]Event, 0, 8)
	got := b.AppendOldestUncounted(scratch, 2, func(id EventID) bool {
		_, ok := counted[id]
		return ok
	})
	if len(got) != 2 || got[0].Age != 4 || got[1].Age != 3 {
		t.Fatalf("AppendOldestUncounted = %v, want ages [4 3]", got)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("the scan did not append into the caller's scratch")
	}
	if got := b.AppendOldestUncounted(got, 0, nil); len(got) != 2 {
		t.Fatalf("limit 0 should append nothing, got %d events", len(got))
	}
	if got := b.AppendOldestUncounted(got[:1], 100, nil); len(got) != 7 || got[0].Age != 4 || got[1].Age != 5 {
		t.Fatalf("limit beyond len should append all after dst's own, got %v", got)
	}
}

func TestBufferSnapshotIsACopy(t *testing.T) {
	b := mustBuffer(t, 3)
	mustAdd(t, b, mkEvent("a", 1, 1))
	snap := b.Snapshot()
	snap[0].Age = 99
	if age, _ := b.Age(EventID{Origin: "a", Seq: 1}); age != 1 {
		t.Fatalf("snapshot mutation leaked into buffer: age %d", age)
	}
}

// TestBufferRandomOpsInvariants drives the buffer with a random workload
// and checks structural invariants plus the eviction-order contract
// after every operation.
func TestBufferRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	b := mustBuffer(t, 16)
	live := make(map[EventID]struct{})
	var seq uint64

	for op := 0; op < 5000; op++ {
		switch rng.IntN(5) {
		case 0, 1: // add
			ev := mkEvent("p", seq, rng.IntN(12))
			seq++
			evicted := mustAdd(t, b, ev)
			live[ev.ID] = struct{}{}
			for _, e := range evicted {
				delete(live, e.ID)
			}
		case 2: // raise a random live event's age
			for id := range live {
				b.RaiseAge(id, rng.IntN(15))
				break
			}
		case 3:
			b.IncrementAges()
		case 4:
			for _, e := range drainExpired(b) {
				delete(live, e.ID)
			}
		}
		if err := b.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if b.Len() != len(live) {
			t.Fatalf("op %d: len %d != tracked %d", op, b.Len(), len(live))
		}
	}

	// Eviction order: drain the buffer via capacity 1 and verify ages
	// are non-increasing.
	prev := int(^uint(0) >> 1)
	evicted, err := setCapacity(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evicted {
		if e.Age > prev {
			t.Fatalf("eviction order violated: %d after %d", e.Age, prev)
		}
		prev = e.Age
	}
}

// checkInvariants validates the bucket lists, index and free list:
// prev and next agree with each other and with every bucket's head and
// tail; each entry sits in bucket min(age, maxAge+1), in (age asc,
// insertion desc) order, and no bucket above the top hint holds one;
// the linked entries are Len, disjoint from the
// free list and together with it the slab; every live slot is found
// through the index, which holds nothing else; and the index has at
// least bufferIndexSpread slots per position.
func (b *Buffer) checkInvariants() error {
	if b.Len() > b.capacity {
		return fmt.Errorf("len %d exceeds capacity %d", b.Len(), b.capacity)
	}
	if len(b.buckets) != b.maxAge+2 {
		return fmt.Errorf("%d buckets for max age %d", len(b.buckets), b.maxAge)
	}
	if len(b.slab) > len(b.index.hashes) || b.capacity > len(b.index.hashes) {
		return fmt.Errorf("slab %d, capacity %d: the index has %d positions", len(b.slab), b.capacity, len(b.index.hashes))
	}
	if slots, n := len(b.index.slots), len(b.index.hashes); slots < bufferIndexSpread*n || slots >= 2*bufferIndexSpread*n {
		return fmt.Errorf("the index has %d slots for %d positions, want the power of two in [%d, %d)", slots, n, bufferIndexSpread*n, 2*bufferIndexSpread*n)
	}
	seen := make(map[int]bool, len(b.slab))
	for k, bk := range b.buckets {
		if k > b.top && bk.head >= 0 {
			return fmt.Errorf("bucket %d holds entries above the top hint %d", k, b.top)
		}
		prev := int32(-1)
		for s := bk.head; s >= 0; prev, s = s, b.slab[s].next {
			slot := int(s)
			if slot >= len(b.slab) || seen[slot] {
				return fmt.Errorf("bucket %d: slot %d out of range or linked twice", k, slot)
			}
			seen[slot] = true
			e := &b.slab[slot]
			if e.prev != prev {
				return fmt.Errorf("bucket %d: slot %d has prev %d, want %d", k, slot, e.prev, prev)
			}
			if e.ev.Age < 0 || min(e.ev.Age, b.maxAge+1) != k {
				return fmt.Errorf("slot %d of age %d sits in bucket %d", slot, e.ev.Age, k)
			}
			if prev >= 0 {
				p := &b.slab[prev]
				if p.ev.Age > e.ev.Age || p.ev.Age == e.ev.Age && p.seq < e.seq {
					return fmt.Errorf("bucket %d: slot %d (age %d, seq %d) after slot %d (age %d, seq %d)",
						k, slot, e.ev.Age, e.seq, prev, p.ev.Age, p.seq)
				}
			}
			id := e.ev.ID
			h := b.hash(id)
			if b.index.hashes[slot] != h {
				return fmt.Errorf("slot %d stores hash %#x for %s, want %#x", slot, b.index.hashes[slot], id, h)
			}
			if got := b.find(id, h); got != slot {
				return fmt.Errorf("event %s at slot %d is found at slot %d", id, slot, got)
			}
		}
		if bk.tail != prev {
			return fmt.Errorf("bucket %d: tail %d, list ends at %d", k, bk.tail, prev)
		}
	}
	if len(seen) != b.Len() {
		return fmt.Errorf("buckets link %d slots, Len is %d", len(seen), b.Len())
	}
	linked := 0
	for _, e := range b.index.slots {
		if e == 0 {
			continue
		}
		linked++
		slot := int(e&b.index.pos) - 1
		if !seen[slot] {
			return fmt.Errorf("index holds slot %d, which is not live", slot)
		}
		if e&^b.index.pos != b.index.hashes[slot]&^b.index.pos {
			return fmt.Errorf("slot %d is tagged %#x, its hash %#x", slot, e&^b.index.pos, b.index.hashes[slot])
		}
	}
	if linked != b.Len() {
		return fmt.Errorf("index holds %d slots, %d are live", linked, b.Len())
	}
	for _, slot := range b.free {
		if seen[slot] {
			return fmt.Errorf("slot %d both live and free", slot)
		}
		seen[slot] = true
	}
	if len(seen) != len(b.slab) {
		return fmt.Errorf("live and free slots cover %d of %d", len(seen), len(b.slab))
	}
	return nil
}
