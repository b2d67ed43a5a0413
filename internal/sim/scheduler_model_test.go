package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
	"time"
)

// The slab scheduler is checked against a naive container/heap model:
// both run the same random sequence of After/Step/RunUntil operations
// and must agree on the clock, the pending count and the exact
// execution order at every step. The model is the pre-slab
// implementation shape — pointer nodes in a binary heap — kept
// deliberately simple so its correctness is obvious.

type refEvent struct {
	at  int64 // ns since base
	seq uint64
	id  int // test-assigned identity, recorded on execution
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refScheduler is the model: same observable semantics as Scheduler
// (past instants clamp to now, FIFO within an instant), implemented the
// obvious way.
type refScheduler struct {
	now  int64
	seq  uint64
	h    refHeap
	runs []int
}

func (r *refScheduler) schedule(atNs int64, id int) {
	if atNs < r.now {
		atNs = r.now
	}
	heap.Push(&r.h, &refEvent{at: atNs, seq: r.seq, id: id})
	r.seq++
}

func (r *refScheduler) step() bool {
	if len(r.h) == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	if ev.at > r.now {
		r.now = ev.at
	}
	r.runs = append(r.runs, ev.id)
	return true
}

func (r *refScheduler) runUntil(tNs int64) {
	for len(r.h) > 0 && r.h[0].at <= tNs {
		r.step()
	}
	if r.now < tNs {
		r.now = tNs
	}
}

// TestSchedulerAgainstModel drives random operation sequences through
// the slab scheduler and the model, comparing clock, pending count and
// execution order after every operation. Negative delays, which both
// sides clamp to "now", are part of the mix.
func TestSchedulerAgainstModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B9))
		s := NewScheduler(Epoch)
		ref := &refScheduler{}
		var got []int
		nextID := 0
		sched := func(atNs int64) {
			id := nextID
			nextID++
			// After clamps negative d to 0, i.e. "now" — same as the
			// model's past-instant clamp.
			s.After(time.Duration(atNs-ref.now), func() { got = append(got, id) })
			ref.schedule(atNs, id)
		}
		for op := 0; op < 3000; op++ {
			switch rng.IntN(8) {
			case 0, 1, 2, 3: // schedule near now, sometimes in the past
				sched(ref.now + rng.Int64N(2000) - 200)
			case 4: // schedule far out
				sched(ref.now + rng.Int64N(1_000_000))
			case 5, 6: // step
				if s.Step() != ref.step() {
					t.Fatalf("seed %d op %d: Step() disagreement", seed, op)
				}
			case 7: // run a window
				tNs := ref.now + rng.Int64N(5000)
				s.RunUntil(Epoch.Add(time.Duration(tNs)))
				ref.runUntil(tNs)
			}
			if s.Len() != len(ref.h) {
				t.Fatalf("seed %d op %d: Len=%d, model has %d pending", seed, op, s.Len(), len(ref.h))
			}
			if nowNs := int64(s.Now().Sub(Epoch)); nowNs != ref.now {
				t.Fatalf("seed %d op %d: Now=%dns, model at %dns", seed, op, nowNs, ref.now)
			}
			if len(got) != len(ref.runs) {
				t.Fatalf("seed %d op %d: executed %d events, model executed %d", seed, op, len(got), len(ref.runs))
			}
		}
		// Drain both completely and compare the full execution order.
		for s.Step() {
		}
		for ref.step() {
		}
		if len(got) != len(ref.runs) {
			t.Fatalf("seed %d: executed %d events total, model executed %d", seed, len(got), len(ref.runs))
		}
		for i := range got {
			if got[i] != ref.runs[i] {
				t.Fatalf("seed %d: execution order diverges at %d: got event %d, model ran %d", seed, i, got[i], ref.runs[i])
			}
		}
		if uint64(len(got)) != s.Executed() {
			t.Fatalf("seed %d: Executed()=%d, want %d", seed, s.Executed(), len(got))
		}
	}
}
