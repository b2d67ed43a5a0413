package e2e

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"time"

	ag "adaptivegossip"
)

// memberCounters are one member's oracle counters, padded so that
// members' delivery goroutines never share a cache line.
type memberCounters struct {
	duplicate atomic.Int64
	corrupt   atomic.Int64
	unknown   atomic.Int64
	_         [40]byte
}

// recorder observes every delivery of a run. Its callback runs on the
// members' gossip goroutines, so per delivery it takes no lock and
// allocates nothing: slot (event, member) of at is written only by that
// member's goroutine and read only after the cluster is closed.
type recorder struct {
	n        int
	base     time.Time
	index    map[ag.NodeID]int
	payloads [][]byte
	// at[event*n+member] is the delivery instant in ns since base, 0
	// for not delivered.
	at       []int64
	counters []memberCounters

	// Set-up probes: probeSeen[k] counts the members that delivered
	// probe k, and allSeen receives k when the count reaches n.
	probeSeen []atomic.Int32
	allSeen   chan int
}

const maxProbes = 64

func newRecorder(n int, sched *Schedule, base time.Time) *recorder {
	r := &recorder{
		n:         n,
		base:      base,
		payloads:  make([][]byte, len(sched.Events)),
		at:        make([]int64, len(sched.Events)*n),
		counters:  make([]memberCounters, n),
		probeSeen: make([]atomic.Int32, maxProbes),
		allSeen:   make(chan int, maxProbes), // one send per probe at most, so sends never block
	}
	for i, ev := range sched.Events {
		r.payloads[i] = ev.Payload
	}
	return r
}

// bind maps the cluster's member names to indexes. It must run before
// the cluster starts.
func (r *recorder) bind(names []ag.NodeID) {
	r.index = make(map[ag.NodeID]int, len(names))
	for i, name := range names {
		r.index[name] = i
	}
}

// deliver is the WithDeliver callback.
func (r *recorder) deliver(d ag.Delivery) {
	now := int64(time.Since(r.base))
	m, ok := r.index[d.Node]
	p := d.Event.Payload
	if !ok || len(p) < headerBytes {
		r.counters[0].unknown.Add(1)
		return
	}
	number := binary.BigEndian.Uint64(p[:8])
	if number&probeBit != 0 {
		k := int(number &^ probeBit)
		if k < maxProbes && int(r.probeSeen[k].Add(1)) == r.n {
			r.allSeen <- k
		}
		return
	}
	if number >= uint64(len(r.payloads)) {
		r.counters[m].unknown.Add(1)
		return
	}
	// Comparing with the generated bytes covers the header checksum
	// and costs a memcmp.
	if !bytes.Equal(p, r.payloads[number]) {
		r.counters[m].corrupt.Add(1)
		return
	}
	slot := &r.at[int(number)*r.n+m]
	if *slot != 0 {
		r.counters[m].duplicate.Add(1)
		return
	}
	*slot = now
}

func (r *recorder) totals() (duplicate, corrupt, unknown int64) {
	for i := range r.counters {
		duplicate += r.counters[i].duplicate.Load()
		corrupt += r.counters[i].corrupt.Load()
		unknown += r.counters[i].unknown.Load()
	}
	return
}

// clock is the generator's view of time, injectable so the due-time
// accounting can be tested with a generator that runs late.
type clock interface {
	// Now is the time since the schedule started.
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// publishLog is what the generator knows about each publish.
type publishLog struct {
	admitted []bool
	// lag is how late the generator got to the publish (start of the
	// call minus due instant); call is how long Publish took.
	lag  []time.Duration
	call []time.Duration
}

// drive is the open-loop generator: one goroutine that publishes every
// event at its due instant, never waiting for an earlier one to be
// delivered. A publish the generator reaches late is sent at once and
// stays timed from when it was due. marks are instants at which onMark
// runs (window and sub-window boundaries), in the generator's own
// goroutine so that no second timer competes with it.
func drive(clk clock, sched *Schedule, publish func(member int, payload []byte) bool, marks []time.Duration, onMark func(k int)) publishLog {
	log := publishLog{
		admitted: make([]bool, len(sched.Events)),
		lag:      make([]time.Duration, len(sched.Events)),
		call:     make([]time.Duration, len(sched.Events)),
	}
	next := 0
	runMarks := func(until time.Duration) {
		for next < len(marks) && marks[next] <= until {
			clk.SleepUntil(marks[next])
			onMark(next)
			next++
		}
	}
	for i := range sched.Events {
		ev := &sched.Events[i]
		runMarks(ev.Due)
		clk.SleepUntil(ev.Due)
		begin := clk.Now()
		log.admitted[i] = publish(ev.Member, ev.Payload)
		log.lag[i] = begin - ev.Due
		log.call[i] = clk.Now() - begin
	}
	runMarks(sched.WindowEnd)
	return log
}
