// Package sim is a deterministic discrete-event simulator: a virtual
// clock, an event scheduler and a network model with configurable
// latency and loss. It stands in for the event-based simulator the
// paper's authors used (§4, "Experimental Settings"): the protocol under
// test is the same state machine the real-time runtime drives, so
// simulation results and prototype results differ only in the driver.
package sim

import (
	"time"

	"adaptivegossip/internal/gossip"
)

// Epoch is the conventional start-of-simulation instant.
var Epoch = time.Unix(0, 0).UTC()

// slot is one scheduled event in the value slab. Free slots are chained
// through next.
//
// An event is either a callback (fn != nil) or a typed network delivery
// record (net != nil): the simulated fabric routes one message per send
// without allocating a capture closure, the dominant event population
// of large-n sweeps.
type slot struct {
	at  int64 // event instant, nanoseconds since the scheduler base
	seq uint64
	// free-list link, meaningful only while the slot is free.
	next int32

	// Typed delivery record (fn == nil): deliver msg to the interned
	// node to on net.
	to  int32
	net *Network
	msg *gossip.Message

	fn func()
}

// Scheduler is a deterministic discrete-event loop. Events scheduled
// for the same instant run in scheduling order. Scheduler is not safe
// for concurrent use: simulations are single-threaded by design.
//
// Events live in a value slab indexed by a 4-ary heap of slot numbers:
// scheduling and running an event moves integers and reuses slab slots
// through a free list instead of allocating per-event heap nodes, which
// keeps n >= 10,000-node simulations off the garbage collector.
type Scheduler struct {
	base     time.Time
	now      int64 // virtual clock, nanoseconds since base
	slots    []slot
	free     int32 // free-list head, -1 when empty
	heap     []int32
	seq      uint64
	executed uint64
}

// NewScheduler returns a scheduler whose clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{base: start, free: -1}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.base.Add(time.Duration(s.now)) }

// Elapsed returns the virtual time passed since the scheduler's start,
// without building a time.Time.
func (s *Scheduler) Elapsed() time.Duration { return time.Duration(s.now) }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.heap) }

// Executed reports the total number of events run since creation — the
// throughput numerator of events/sec measurements.
func (s *Scheduler) Executed() uint64 { return s.executed }

// alloc takes a slot off the free list, growing the slab when none is
// free, and stamps the event's time and sequence.
func (s *Scheduler) alloc(atNs int64) int32 {
	id := s.free
	if id >= 0 {
		s.free = s.slots[id].next
	} else {
		id = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	sl := &s.slots[id]
	sl.at = atNs
	sl.seq = s.seq
	s.seq++
	return id
}

// release returns a slot to the free list, dropping event references
// so the slab does not retain callbacks or messages.
func (s *Scheduler) release(id int32) {
	sl := &s.slots[id]
	sl.fn = nil
	sl.net = nil
	sl.msg = nil
	sl.next = s.free
	s.free = id
}

// After schedules fn to run d from now. Non-positive d means "next
// step".
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	id := s.alloc(s.now + int64(d))
	s.slots[id].fn = fn
	s.heapPush(id)
}

// scheduleDelivery enqueues a typed message-delivery event: the slab
// form of the fabric's "deliver msg to node after lat" closure, without
// the closure.
func (s *Scheduler) scheduleDelivery(lat time.Duration, net *Network, to int32, msg *gossip.Message) {
	if lat < 0 {
		lat = 0
	}
	id := s.alloc(s.now + int64(lat))
	sl := &s.slots[id]
	sl.net = net
	sl.to = to
	sl.msg = msg
	s.heapPush(id)
}

// Step runs the next pending event, advancing the clock to its instant.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	id := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 0 {
		s.siftDown(0)
	}
	sl := &s.slots[id]
	if sl.at > s.now {
		s.now = sl.at
	}
	// Copy the event out and release the slot before executing: the
	// callback may schedule new events into the just-freed slot.
	fn := sl.fn
	net, to, msg := sl.net, sl.to, sl.msg
	s.release(id)
	s.executed++
	if fn != nil {
		fn()
	} else {
		net.deliver(to, msg)
	}
	return true
}

// RunUntil executes all events scheduled at or before t, then advances
// the clock to t.
func (s *Scheduler) RunUntil(t time.Time) {
	tNs := int64(t.Sub(s.base))
	for len(s.heap) > 0 && s.slots[s.heap[0]].at <= tNs {
		s.Step()
	}
	if s.now < tNs {
		s.now = tNs
	}
}

// RunFor is RunUntil(Now().Add(d)).
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}

// Drain runs events until none remain or the safety limit is hit,
// returning the number executed. The limit guards against runaway
// self-rescheduling loops in tests.
func (s *Scheduler) Drain(limit int) int {
	ran := 0
	for ran < limit && s.Step() {
		ran++
	}
	return ran
}

// before orders two live slots: by instant, ties broken by scheduling
// order (FIFO within an instant).
func (s *Scheduler) before(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// The heap is 4-ary: shallower than a binary heap (fewer cache lines
// touched per sift on the deep heaps a 10k-node sweep builds) at the
// cost of three extra comparisons per level, which the slot-index
// indirection amortizes.

func (s *Scheduler) heapPush(id int32) {
	s.heap = append(s.heap, id)
	s.siftUp(len(s.heap) - 1)
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	id := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(id, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = id
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	id := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.before(h[j], h[best]) {
				best = j
			}
		}
		if !s.before(h[best], id) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = id
}
