package gossip

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func mkEvent(origin string, seq uint64, age int) Event {
	return Event{ID: EventID{Origin: NodeID(origin), Seq: seq}, Age: age}
}

func mustBuffer(t *testing.T, capacity int) *Buffer {
	t.Helper()
	b, err := NewBuffer(capacity)
	if err != nil {
		t.Fatalf("NewBuffer(%d): %v", capacity, err)
	}
	return b
}

func mustAdd(t *testing.T, b *Buffer, ev Event) []Event {
	t.Helper()
	evicted, err := b.Add(ev)
	if err != nil {
		t.Fatalf("Add(%v): %v", ev.ID, err)
	}
	return evicted
}

func TestNewBufferRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1, -100} {
		if _, err := NewBuffer(capacity); err == nil {
			t.Errorf("NewBuffer(%d): want error, got nil", capacity)
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
	if _, err := b.Add(mkEvent("a", 1, 5)); err == nil {
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
	b := mustBuffer(t, 8)
	mustAdd(t, b, mkEvent("a", 1, 2))
	mustAdd(t, b, mkEvent("a", 2, 11))
	mustAdd(t, b, mkEvent("a", 3, 15))
	mustAdd(t, b, mkEvent("a", 4, 10))

	expired := b.DropExpired(10)
	if len(expired) != 2 {
		t.Fatalf("expired %d events, want 2", len(expired))
	}
	if expired[0].Age < expired[1].Age {
		t.Fatalf("expired not oldest-first: %v", expired)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if b.DropExpired(10) != nil {
		t.Fatal("second DropExpired should remove nothing")
	}
}

func TestBufferSetCapacity(t *testing.T) {
	b := mustBuffer(t, 5)
	for i := uint64(0); i < 5; i++ {
		mustAdd(t, b, mkEvent("a", i, int(i)))
	}
	evicted, err := b.SetCapacity(2)
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
	if _, err := b.SetCapacity(0); err == nil {
		t.Fatal("SetCapacity(0): want error")
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
			for _, e := range b.DropExpired(25) {
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
	evicted, err := b.SetCapacity(1)
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

// checkInvariants validates ordering, index and free-list consistency:
// every live slot is found through the index, which holds nothing else.
func (b *Buffer) checkInvariants() error {
	if len(b.order) > b.capacity {
		return fmt.Errorf("len %d exceeds capacity %d", len(b.order), b.capacity)
	}
	if len(b.order)+len(b.free) != len(b.slab) {
		return fmt.Errorf("order %d + free %d != slab %d", len(b.order), len(b.free), len(b.slab))
	}
	if len(b.slab) > len(b.index.hashes) || b.capacity >= len(b.index.hashes) {
		return fmt.Errorf("slab %d, capacity %d: the index has %d positions", len(b.slab), b.capacity, len(b.index.hashes))
	}
	for i := 1; i < len(b.order); i++ {
		prev, cur := &b.slab[b.order[i-1]], &b.slab[b.order[i]]
		if prev.ev.Age > cur.ev.Age {
			return fmt.Errorf("age order violated at %d: %d > %d", i, prev.ev.Age, cur.ev.Age)
		}
		if prev.ev.Age == cur.ev.Age && prev.seq < cur.seq {
			return fmt.Errorf("tie order violated at %d", i)
		}
	}
	seen := make(map[int]bool, len(b.slab))
	for _, slot := range b.order {
		if seen[slot] {
			return fmt.Errorf("slot %d linked twice in order", slot)
		}
		seen[slot] = true
		id := b.slab[slot].ev.ID
		h := b.hash(id)
		if b.index.hashes[slot] != h {
			return fmt.Errorf("slot %d stores hash %#x for %s, want %#x", slot, b.index.hashes[slot], id, h)
		}
		if got := b.find(id, h); got != slot {
			return fmt.Errorf("event %s at slot %d is found at slot %d", id, slot, got)
		}
	}
	linked := 0
	for _, e := range b.index.slots {
		if e == 0 {
			continue
		}
		linked++
		if !seen[int(e-1)] {
			return fmt.Errorf("index holds slot %d, which is not live", e-1)
		}
	}
	if linked != len(b.order) {
		return fmt.Errorf("index holds %d slots, %d are live", linked, len(b.order))
	}
	for _, slot := range b.free {
		if seen[slot] {
			return fmt.Errorf("slot %d both live and free", slot)
		}
		seen[slot] = true
	}
	return nil
}
