package experiments

import (
	"fmt"
	"math"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// atomicityThreshold is the paper's reliability target: a message
// counts as atomically delivered when it reaches more than 95% of the
// group.
const atomicityThreshold = 0.95

const (
	runLen     = 32       // records per run: seqs k·runLen … k·runLen+31 of one origin
	blockBytes = 64 << 10 // target size of a block of records and bitsets
)

// msgRec is one message's record.
type msgRec struct {
	born int64 // nanoseconds after the tracker's epoch
	// count is the number of members that delivered the message, with
	// bornKnown set once the birth came from Broadcast.
	count uint32
	// reach is the offset from the epoch, in milliseconds, of the
	// delivery that brought count to ⌈0.99·n⌉; it means nothing before.
	reach int32
}

const bornKnown = 1 << 31

func (r msgRec) got() int { return int(r.count &^ bornKnown) }

// reachMillis converts an offset from the epoch to msgRec.reach,
// saturating beyond about 24 days either way.
func reachMillis(at time.Duration) int32 {
	return int32(min(max(at/time.Millisecond, math.MinInt32), math.MaxInt32))
}

// block is a fixed array of runs: records and their bitsets, words per
// record, in the same order.
type block struct {
	recs []msgRec
	bits []uint64
}

// deliveryTracker is the run's delivery ledger: which members delivered
// which events, from which it derives the paper's reliability measures
// — coverage (Fig. 8a) and atomicity (Figs. 2, 8b, 9b) — plus two
// pooled distributions, per-delivery latency (microseconds since the
// message's birth) and hop count, in the bucket layout the live
// runtime's debug endpoint serves. Times are offsets from the epoch the
// tracker was made with.
//
// It keeps one 16-byte record per message — its birth, its delivery
// count, whether the birth came from Broadcast, and the millisecond at
// which the count reached ⌈0.99·n⌉ — and, at the same index of the same
// block, a delivered-by bitset of ⌈n/64⌉ words: 24 bytes per message in
// the paper's 60-member group. Records live in runs of runLen
// consecutive seqs of one origin, and each origin has a directory from
// seq/runLen to its runs. Runs are cut in order from blocks of about
// blockBytes that are allocated when the previous block is used up and
// never copied; the directories are int32 slices that double, cut from
// shared blocks that double too. Tracking allocates nothing per event.
//
// In a run every origin is a member, named by memberNames, numbers its
// events from 0 and delivers each to itself inside Broadcast before any
// other member can see it, so an origin's directory grows one run at a
// time. The tracker finds an origin's index from the digits of its name
// (memberIndex), not through a map. An id the directories cannot index
// is a bug in the run body, and the tracker panics with it.
//
// The world decides what guards the tracker: the wall world's members
// deliver from their own goroutines, so it hands over a mutex; the
// virtual world runs everything on one goroutine and hands over a lock
// that does nothing. Run reads the fields once nothing delivers any
// more.
type deliveryTracker struct {
	mu     sync.Locker
	epoch  time.Time
	names  []gossip.NodeID
	n      int
	need   int // members strictly above atomicityThreshold·n
	need99 int // ⌈0.99·n⌉
	words  int

	blocks     []block
	blockShift uint      // runs per block = 1 << blockShift
	runs       int32     // runs cut so far
	dirs       [][]int32 // origin → seq/runLen → run number + 1, 0 for none
	spare      []int32   // uncut tail of the block directories are cut from
	cut        int       // int32s cut from those blocks so far

	latency observe.HistogramSnapshot // microseconds birth → delivery
	hops    observe.HistogramSnapshot // event age at delivery

	// repeat is the first delivery of an event to a member that had it
	// (member -1 while there is none): a breach of exactly-once, which
	// run refuses.
	repeat struct {
		id     gossip.EventID
		member int
	}
}

// newDeliveryTracker tracks deliveries across the group memberNames
// names, with times given as offsets from epoch, every call under mu.
func newDeliveryTracker(names []gossip.NodeID, epoch time.Time, mu sync.Locker) *deliveryTracker {
	n := len(names)
	t := &deliveryTracker{
		mu:     mu,
		epoch:  epoch,
		names:  names,
		n:      n,
		need:   min(int(atomicityThreshold*float64(n))+1, n),
		need99: (99*n + 99) / 100,
		words:  (n + 63) / 64,
		dirs:   make([][]int32, n),
	}
	t.repeat.member = -1
	// A block holds the most runs, a power of two and at least one, that
	// fit in blockBytes.
	runBytes := runLen * (16 + 8*t.words)
	for (2<<t.blockShift)*runBytes <= blockBytes {
		t.blockShift++
	}
	return t
}

// record returns id's record and bitset, creating them at first sight.
func (t *deliveryTracker) record(id gossip.EventID) (*msgRec, []uint64) {
	o := memberIndex(t.names, id.Origin)
	k := id.Seq / runLen
	if o < 0 || k > uint64(len(t.dirs[o])) {
		panic(fmt.Sprintf("experiments: event %s/%d is not the next of a member's events", id.Origin, id.Seq))
	}
	if k == uint64(len(t.dirs[o])) {
		t.grow(o)
	}
	e := &t.dirs[o][k]
	if *e == 0 {
		if t.runs>>t.blockShift == int32(len(t.blocks)) {
			recs := runLen << t.blockShift
			t.blocks = append(t.blocks, block{
				recs: make([]msgRec, recs),
				bits: make([]uint64, recs*t.words),
			})
		}
		t.runs++
		*e = t.runs
	}
	r := int(*e - 1)
	b := &t.blocks[r>>t.blockShift]
	j := (r&(1<<t.blockShift-1))*runLen + int(id.Seq%runLen)
	return &b.recs[j], b.bits[j*t.words : (j+1)*t.words]
}

// memberNames names the n members of a run: member i is n followed by
// i in decimal, at least three digits wide (n000, n001, …, n999, n1000).
func memberNames(n int) []gossip.NodeID {
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	return names
}

// memberIndex is the index of the member of names called name, or -1 if
// none is: it reads the index back from the digits memberNames wrote and
// checks the name at that index, so a near miss (a missing or extra
// leading zero) or an index past the group is not a member.
func memberIndex(names []gossip.NodeID, name gossip.NodeID) int {
	if len(name) < 2 || name[0] != 'n' {
		return -1
	}
	i := 0
	for k := 1; k < len(name); k++ {
		c := name[k]
		if c < '0' || c > '9' {
			return -1
		}
		if i = 10*i + int(c-'0'); i >= len(names) {
			return -1
		}
	}
	if names[i] != name {
		return -1
	}
	return i
}

// grow doubles origin o's directory.
func (t *deliveryTracker) grow(o int) {
	d := t.dirs[o]
	n := max(2*len(d), 4)
	if len(t.spare) < n {
		t.spare = make([]int32, max(n, t.cut, 256))
	}
	grown := t.spare[:n:n]
	t.spare = t.spare[n:]
	t.cut += n
	copy(grown, d)
	t.dirs[o] = grown
}

// Broadcast registers the birth of a message, at offset at from the
// tracker's epoch. It may be called before or after the first
// DeliverHop for the same event (the origin delivers to itself inside
// Broadcast in the protocol).
func (t *deliveryTracker) Broadcast(id gossip.EventID, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, _ := t.record(id)
	rec.born = int64(at)
	rec.count |= bornKnown
}

// DeliverHop records that the member at index i of the tracker's member
// list delivered the event at offset at from the tracker's epoch. With
// hop >= 0 it also observes the delivery latency (at minus the
// message's birth, in microseconds) and the event's age — its gossip
// hop count — into the tracker's pooled distributions. A repeated
// delivery of the event to the same member is observed nowhere; the
// first one is kept in repeat.
func (t *deliveryTracker) DeliverHop(id gossip.EventID, i int, at time.Duration, hop int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, bits := t.record(id)
	now := int64(at)
	if rec.count == 0 || (rec.count&bornKnown == 0 && now < rec.born) {
		rec.born = now // best-effort birth time until Broadcast arrives
	}
	w, b := i/64, uint(i%64)
	if bits[w]&(1<<b) != 0 {
		if t.repeat.member < 0 {
			t.repeat.id, t.repeat.member = id, i
		}
		return
	}
	bits[w] |= 1 << b
	rec.count++
	if rec.got() == t.need99 {
		rec.reach = reachMillis(at)
	}
	if hop >= 0 {
		t.latency.Add(uint64(max(time.Duration(now-rec.born).Microseconds(), 0)))
		t.hops.Add(uint64(hop))
	}
}

// each calls fn with every record born in [from, to). A slot of a run
// whose seq was never seen is zero: no delivery and no Broadcast.
func (t *deliveryTracker) each(from, to time.Time, fn func(rec msgRec)) {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	for _, b := range t.blocks {
		for _, rec := range b.recs {
			if rec.count != 0 && rec.born >= lo && rec.born < hi {
				fn(rec)
			}
		}
	}
}

// Summary are the aggregate reliability measures over a set of
// messages.
type Summary struct {
	// Messages is the number of broadcasts considered.
	Messages int
	// MeanReceiversPct is the average percentage of members reached per
	// message (Fig. 8a).
	MeanReceiversPct float64
	// AtomicityPct is the percentage of messages that reached more than
	// 95% of the members (Figs. 2, 8b).
	AtomicityPct float64
	// MeanTo99 is the mean time, over the messages that got there, from
	// birth to the delivery that brought a message to ⌈0.99·n⌉ members,
	// to the millisecond; AllReached99 reports whether every one did.
	MeanTo99     time.Duration
	AllReached99 bool
}

// Results aggregates messages born in [from, to).
func (t *deliveryTracker) Results(from, to time.Time) Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		// receivers accumulates integer delivery counts so the mean is
		// exact and independent of the order records are visited in —
		// float accumulation here would make otherwise-deterministic
		// simulations diverge in the last ulp.
		receivers int
		atomics   int
		count     int
		reached   int
		to99      time.Duration
	)
	t.each(from, to, func(rec msgRec) {
		got := rec.got()
		count++
		receivers += got
		if got >= t.need {
			atomics++
		}
		if got >= t.need99 {
			reached++
			to99 += max(time.Duration(rec.reach)*time.Millisecond-time.Duration(rec.born), 0)
		}
	})
	if count == 0 {
		return Summary{}
	}
	s := Summary{
		Messages:         count,
		MeanReceiversPct: 100 * float64(receivers) / (float64(t.n) * float64(count)),
		AtomicityPct:     100 * float64(atomics) / float64(count),
		AllReached99:     reached == count,
	}
	if reached > 0 {
		s.MeanTo99 = to99 / time.Duration(reached)
	}
	return s
}

// BucketStat is one time-bucket of the atomicity series (Fig. 9b).
type BucketStat struct {
	Start            time.Time
	Messages         int
	AtomicityPct     float64
	MeanReceiversPct float64
}

// Series buckets messages born in [start, end) by birth time and
// reports per-bucket reliability, for the dynamic-resource time series
// of Fig. 9(b).
func (t *deliveryTracker) Series(start, end time.Time, bucket time.Duration) []BucketStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	type acc struct {
		msgs      int
		receivers int // integer sum: exact, iteration-order independent
		atomics   int
	}
	accs := make([]acc, int(end.Sub(start)/bucket)+1)
	lo := int64(start.Sub(t.epoch))
	t.each(start, end, func(rec msgRec) {
		a := &accs[time.Duration(rec.born-lo)/bucket]
		a.msgs++
		a.receivers += rec.got()
		if rec.got() >= t.need {
			a.atomics++
		}
	})
	out := make([]BucketStat, len(accs))
	for i, a := range accs {
		out[i] = BucketStat{Start: start.Add(time.Duration(i) * bucket), Messages: a.msgs}
		if a.msgs > 0 {
			out[i].AtomicityPct = 100 * float64(a.atomics) / float64(a.msgs)
			out[i].MeanReceiversPct = 100 * float64(a.receivers) / (float64(t.n) * float64(a.msgs))
		}
	}
	return out
}
