package gossip

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refBuffer is a deliberately naive reference model of Buffer: a plain
// slice re-sorted after every mutation. It exists to check the slab
// implementation against an implementation whose correctness is
// obvious.
type refBuffer struct {
	capacity int
	maxAge   int
	entries  []refEntry
	nextSeq  uint64
}

type refEntry struct {
	ev  Event
	seq uint64
}

func newRefBuffer(capacity, maxAge int) *refBuffer {
	return &refBuffer{capacity: capacity, maxAge: maxAge}
}

// clamp is the age Buffer stores for a given one.
func (r *refBuffer) clamp(age int) int { return min(max(age, 0), r.maxAge+1) }

func (r *refBuffer) sort() {
	sort.SliceStable(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.ev.Age != b.ev.Age {
			return a.ev.Age < b.ev.Age
		}
		return a.seq > b.seq // newer insertions first among equal ages
	})
}

func (r *refBuffer) find(id EventID) int {
	for i, e := range r.entries {
		if e.ev.ID == id {
			return i
		}
	}
	return -1
}

func (r *refBuffer) evictOverflow() []Event {
	var evicted []Event
	for len(r.entries) > r.capacity {
		victim := r.entries[len(r.entries)-1]
		r.entries = r.entries[:len(r.entries)-1]
		evicted = append(evicted, victim.ev)
	}
	return evicted
}

func (r *refBuffer) add(ev Event) ([]Event, bool) {
	if r.find(ev.ID) >= 0 {
		return nil, false
	}
	ev.Age = r.clamp(ev.Age)
	r.entries = append(r.entries, refEntry{ev: ev, seq: r.nextSeq})
	r.nextSeq++
	r.sort()
	return r.evictOverflow(), true
}

func (r *refBuffer) raiseAge(id EventID, age int) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	if age := r.clamp(age); age > r.entries[i].ev.Age {
		r.entries[i].ev.Age = age
		r.sort()
	}
	return true
}

func (r *refBuffer) incrementAges() {
	for i := range r.entries {
		r.entries[i].ev.Age++
	}
}

func (r *refBuffer) dropExpired() []Event {
	var expired []Event
	// Sorted age-ascending: the expired tail, oldest first.
	for i := len(r.entries) - 1; i >= 0; i-- {
		if r.entries[i].ev.Age > r.maxAge {
			expired = append(expired, r.entries[i].ev)
		}
	}
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.ev.Age <= r.maxAge {
			kept = append(kept, e)
		}
	}
	r.entries = kept
	return expired
}

func (r *refBuffer) setCapacity(capacity int) []Event {
	r.capacity = capacity
	return r.evictOverflow()
}

func (r *refBuffer) snapshot() []Event {
	out := make([]Event, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.ev
	}
	return out
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Age != b[i].Age {
			return false
		}
	}
	return true
}

// TestBufferMatchesModel drives the slab Buffer and the naive reference
// with identical random operation sequences — adds, raises, aging,
// expiry and resizes interleaved, with ages past max age up to
// math.MaxInt — and asserts identical eviction order, snapshots and
// lookups after every step.
func TestBufferMatchesModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		var next uint64
		checkAgainstModel(t, seed, func(*Buffer) EventID {
			next++
			return EventID{Origin: "m", Seq: next - 1}
		})
	}
}

// TestBufferCollidingIDs runs the model check on ids whose hashes share
// their low 8 bits: every table the buffer sizes has at most 128 slots,
// so all buffered ids sit in one probe run, and every eviction, expiry,
// age raise and resize moves entries through backward-shift deletion.
func TestBufferCollidingIDs(t *testing.T) {
	for _, seed := range []uint64{5, 6} {
		var next uint64
		checkAgainstModel(t, seed, func(b *Buffer) EventID {
			for {
				id := EventID{Origin: "c", Seq: next}
				next++
				if b.hash(id)&0xff == 0x5a {
					return id
				}
			}
		})
	}
}

// checkAgainstModel drives a buffer and the reference with one random
// operation sequence, adding the ids newID returns.
func checkAgainstModel(t *testing.T, seed uint64, newID func(*Buffer) EventID) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*7+3))
	const capacity = 12
	maxAge := 2 + rng.IntN(8)
	buf, err := NewBuffer(capacity, maxAge)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefBuffer(capacity, maxAge)
	var known []EventID // every id ever inserted, for RaiseAge draws
	// drawAge draws mostly around max age, now and then a forged age.
	drawAge := func() int {
		if rng.IntN(20) == 0 {
			return math.MaxInt - rng.IntN(2)
		}
		return rng.IntN(maxAge + 4)
	}

	for step := 0; step < 3000; step++ {
		var opName string
		var got, want []Event
		switch op := rng.IntN(100); {
		case op < 55: // Add
			ev := Event{ID: newID(buf), Age: drawAge()}
			known = append(known, ev.ID)
			opName = fmt.Sprintf("Add(%s age=%d)", ev.ID, ev.Age)
			var err error
			got, err = add(buf, ev)
			if err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, opName, err)
			}
			want, _ = ref.add(ev)
		case op < 75: // RaiseAge on a known id (present or long gone)
			if len(known) == 0 {
				continue
			}
			id := known[rng.IntN(len(known))]
			age := drawAge()
			opName = fmt.Sprintf("RaiseAge(%s, %d)", id, age)
			if g, w := buf.RaiseAge(id, age), ref.raiseAge(id, age); g != w {
				t.Fatalf("seed %d step %d: %s: present=%v, model says %v", seed, step, opName, g, w)
			}
		case op < 85: // IncrementAges
			opName = "IncrementAges"
			buf.IncrementAges()
			ref.incrementAges()
		case op < 95: // DropExpired
			opName = "DropExpired"
			got = drainExpired(buf)
			want = ref.dropExpired()
		default: // SetCapacity: shrinks, and grows past every size so far
			capacity := 1 + rng.IntN(40)
			opName = fmt.Sprintf("SetCapacity(%d)", capacity)
			var err error
			got, err = setCapacity(buf, capacity)
			if err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, opName, err)
			}
			want = ref.setCapacity(capacity)
		}

		if !sameEvents(got, want) {
			t.Fatalf("seed %d step %d: %s: eviction order diverged:\n slab: %v\nmodel: %v",
				seed, step, opName, got, want)
		}
		if snap, wantSnap := buf.Snapshot(), ref.snapshot(); !sameEvents(snap, wantSnap) {
			t.Fatalf("seed %d step %d: %s: snapshot diverged:\n slab: %v\nmodel: %v",
				seed, step, opName, snap, wantSnap)
		}
		if appended := buf.AppendSnapshot(nil); !sameEvents(appended, buf.Snapshot()) {
			t.Fatalf("seed %d step %d: AppendSnapshot != Snapshot", seed, step)
		}
		if buf.Len() != len(ref.entries) {
			t.Fatalf("seed %d step %d: Len = %d, model has %d", seed, step, buf.Len(), len(ref.entries))
		}
		// Lookups: every live id, and a sample of the ids that left.
		for _, e := range ref.entries {
			ev, ok := buf.Get(e.ev.ID)
			age, aok := buf.Age(e.ev.ID)
			if !ok || !aok || !buf.Contains(e.ev.ID) || ev.ID != e.ev.ID || ev.Age != e.ev.Age || age != e.ev.Age {
				t.Fatalf("seed %d step %d: %s: live %s (age %d) looked up as %v/%v/%v, age %d",
					seed, step, opName, e.ev.ID, e.ev.Age, ok, aok, buf.Contains(e.ev.ID), age)
			}
		}
		for i := 0; i < 8 && len(known) > 0; i++ {
			id := known[rng.IntN(len(known))]
			if ref.find(id) >= 0 {
				continue
			}
			_, ok := buf.Get(id)
			_, aok := buf.Age(id)
			if ok || aok || buf.Contains(id) {
				t.Fatalf("seed %d step %d: %s: departed %s still found", seed, step, opName, id)
			}
		}
		if err := buf.checkInvariants(); err != nil {
			t.Fatalf("seed %d step %d: %s: invariants: %v", seed, step, opName, err)
		}
	}
}
