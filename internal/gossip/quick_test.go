package gossip

// Property-based tests (testing/quick) over the core data structures:
// random operation sequences are checked against invariants and, where
// practical, a reference model.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickBufferInvariants drives a buffer with quick-generated
// operation tapes and checks structural invariants after every step.
func TestQuickBufferInvariants(t *testing.T) {
	type op struct {
		Kind uint8 // 0-1: add, 2: raise, 3: incr, 4: expire, 5: resize
		Age  uint8
		Arg  uint16
	}
	f := func(capacity uint8, ops []op) bool {
		capn := int(capacity)%64 + 1
		maxAge := int(capacity)%25 + 5
		b, err := NewBuffer(capn, maxAge)
		if err != nil {
			return false
		}
		var seq uint64
		live := map[EventID]struct{}{}
		for _, o := range ops {
			switch o.Kind % 6 {
			case 0, 1:
				ev := Event{ID: EventID{Origin: "q", Seq: seq}, Age: int(o.Age % 20)}
				seq++
				evicted, err := add(b, ev)
				if err != nil {
					return false
				}
				live[ev.ID] = struct{}{}
				for _, e := range evicted {
					delete(live, e.ID)
				}
			case 2:
				id := EventID{Origin: "q", Seq: uint64(o.Arg) % (seq + 1)}
				b.RaiseAge(id, int(o.Age%25))
			case 3:
				b.IncrementAges()
			case 4:
				for _, e := range drainExpired(b) {
					delete(live, e.ID)
				}
			case 5:
				newCap := int(o.Arg)%64 + 1
				evicted, err := setCapacity(b, newCap)
				if err != nil {
					return false
				}
				for _, e := range evicted {
					delete(live, e.ID)
				}
			}
			if err := b.checkInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			if b.Len() != len(live) {
				t.Logf("len mismatch: %d vs %d", b.Len(), len(live))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBufferEvictionIsOldestFirst: whatever the op sequence, a
// forced full eviction yields non-increasing ages.
func TestQuickBufferEvictionIsOldestFirst(t *testing.T) {
	f := func(ages []uint8) bool {
		if len(ages) == 0 {
			return true
		}
		b, err := NewBuffer(len(ages), 30)
		if err != nil {
			return false
		}
		for i, a := range ages {
			if _, _, err := b.Add(Event{ID: EventID{Origin: "q", Seq: uint64(i)}, Age: int(a % 30)}); err != nil {
				return false
			}
		}
		evicted, err := setCapacity(b, 1)
		if err != nil {
			return false
		}
		prev := 1 << 30
		for _, e := range evicted {
			if e.Age > prev {
				return false
			}
			prev = e.Age
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIDCacheModel checks the cache against a straightforward
// newest-window reference model, over ids of two origins, 512 seqs
// each.
func TestQuickIDCacheModel(t *testing.T) {
	f := func(capacity uint8, seqs []uint16) bool {
		capn := int(capacity)%32 + 1
		c, err := NewIDCache(capn)
		if err != nil {
			return false
		}
		var window []EventID // distinct ids, newest last
		for _, s := range seqs {
			id := EventID{Origin: []NodeID{"q", "r"}[s/512%2], Seq: uint64(s % 512)}
			dup := false
			for _, w := range window {
				if w == id {
					dup = true
					break
				}
			}
			_, added := c.Add(id)
			if added == dup {
				return false // Add must report novelty exactly
			}
			if !dup {
				window = append(window, id)
				if len(window) > capn {
					window = window[1:]
				}
			}
			if c.Len() != len(window) || c.Len() > capn {
				return false
			}
			for _, w := range window {
				if !c.Contains(w) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
