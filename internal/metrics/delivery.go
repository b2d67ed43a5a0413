// Package metrics implements the measurements the paper's evaluation
// reports: per-message delivery coverage (average % of receivers,
// Fig. 8a), atomicity (share of messages reaching >95% of members,
// Figs. 2, 8b, 9b), input/output rates (Figs. 6, 7, 9a) and the average
// age of dropped messages (Figs. 4, 7c). All collectors are safe for
// concurrent use so the same code instruments both the single-threaded
// simulator and the goroutine runtime.
//
// # The delivery ledger
//
// DeliveryTracker keeps one 16-byte record per message — its birth as
// nanoseconds after the tracker's epoch, its delivery count, whether
// the birth came from Broadcast, and the millisecond at which the count
// reached ⌈0.99·n⌉ — and, at the same index of the same block, a
// delivered-by bitset of ⌈n/64⌉ words: 24 bytes per message in the
// paper's 60-member group.
//
// Records live in runs of runLen consecutive seqs of one origin, and
// each member origin has a directory from seq/runLen to its runs, so a
// record is one directory read away from (origin index, seq). Runs are
// cut in order from blocks of about blockBytes (a power of two runs
// each) that are allocated when the previous block is used up and
// never copied; a run is cut when the first seq it covers is seen. The
// directories are int32 slices that double, cut from shared blocks
// that double too, so the whole ledger costs a handful of allocations
// per block of records.
//
// A map holds the records the directories cannot index — origins
// outside the member list, and seqs so far beyond their origin's
// directory that indexing them would waste memory — under consecutive
// seqs of one extra directory. It is consulted first: a record stays
// where its id was first placed, even once its origin's directory
// reaches its seq.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// DefaultAtomicityThreshold is the paper's reliability target: a
// message counts as atomically delivered when it reaches more than 95%
// of the group.
const DefaultAtomicityThreshold = 0.95

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

// DeliveryTracker records which members delivered which broadcast
// events and derives the paper's reliability measures. Times are given
// as offsets from the epoch the tracker was made with. Deliveries
// reported through DeliverHop additionally feed two pooled
// distributions — per-delivery latency (microseconds since the
// message's birth) and hop count — counted under the tracker's lock in
// the bucket layout the live runtime's debug endpoint serves.
//
// Tracking allocates nothing per event; the package comment describes
// the layout.
type DeliveryTracker struct {
	mu      sync.Mutex
	epoch   time.Time
	members map[gossip.NodeID]int
	n       int
	need99  int // ⌈0.99·n⌉
	words   int

	blocks     []block
	blockShift uint                      // runs per block = 1 << blockShift
	runs       int32                     // runs cut so far
	dirs       [][]int32                 // origin → seq/runLen → run number + 1, 0 for none; dirs[n] for others
	spare      []int32                   // uncut tail of the block directories are cut from
	cut        int                       // int32s cut from those blocks so far
	others     map[gossip.EventID]uint64 // what the member directories cannot index → seq in dirs[n]

	latency    observe.HistogramSnapshot // microseconds birth → delivery
	hops       observe.HistogramSnapshot // event age at delivery
	duplicates uint64                    // deliveries of an event to a member that had it
}

// NewDeliveryTracker tracks deliveries across the given group, with
// times given as offsets from epoch.
func NewDeliveryTracker(members []gossip.NodeID, epoch time.Time) (*DeliveryTracker, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("metrics: member list must not be empty")
	}
	idx := make(map[gossip.NodeID]int, len(members))
	for _, m := range members {
		if _, dup := idx[m]; dup {
			return nil, fmt.Errorf("metrics: duplicate member %s", m)
		}
		idx[m] = len(idx)
	}
	t := &DeliveryTracker{
		epoch:   epoch,
		members: idx,
		n:       len(idx),
		need99:  (99*len(idx) + 99) / 100,
		words:   (len(idx) + 63) / 64,
		dirs:    make([][]int32, len(idx)+1),
	}
	// A block holds the most runs, a power of two and at least one, that
	// fit in blockBytes.
	runBytes := runLen * (16 + 8*t.words)
	for (2<<t.blockShift)*runBytes <= blockBytes {
		t.blockShift++
	}
	return t, nil
}

// record returns id's record and bitset, creating them at first sight.
func (t *DeliveryTracker) record(id gossip.EventID) (*msgRec, []uint64) {
	if seq, ok := t.others[id]; ok {
		return t.at(t.dir(t.n, seq/runLen), seq)
	}
	if o, ok := t.members[id.Origin]; ok {
		if e := t.dir(o, id.Seq/runLen); e != nil {
			return t.at(e, id.Seq)
		}
	}
	if t.others == nil {
		t.others = make(map[gossip.EventID]uint64)
	}
	seq := uint64(len(t.others))
	t.others[id] = seq
	return t.at(t.dir(t.n, seq/runLen), seq)
}

// dir returns origin o's directory entry for run k, growing the
// directory by doubling to reach it, or nil for a run so far beyond the
// directory that indexing it would waste memory. The directory of the
// map's records grows one run at a time, so it always reaches.
func (t *DeliveryTracker) dir(o int, k uint64) *int32 {
	d := t.dirs[o]
	if k < uint64(len(d)) {
		return &d[k]
	}
	if k >= 2*uint64(len(d))+2 {
		return nil
	}
	n := max(2*len(d), 4)
	for uint64(n) <= k {
		n *= 2
	}
	if len(t.spare) < n {
		t.spare = make([]int32, max(n, t.cut, 256))
	}
	grown := t.spare[:n:n]
	t.spare = t.spare[n:]
	t.cut += n
	copy(grown, d)
	t.dirs[o] = grown
	return &grown[k]
}

// at returns seq's record and bitset in the run directory entry e
// names, cutting the run first if e names none.
func (t *DeliveryTracker) at(e *int32, seq uint64) (*msgRec, []uint64) {
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
	j := (r&(1<<t.blockShift-1))*runLen + int(seq%runLen)
	return &b.recs[j], b.bits[j*t.words : (j+1)*t.words]
}

// Broadcast registers the birth of a message, at offset at from the
// tracker's epoch. It may be called before or after the first
// DeliverHop for the same event (the origin delivers to itself inside
// Broadcast in the protocol).
func (t *DeliveryTracker) Broadcast(id gossip.EventID, at time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, _ := t.record(id)
	rec.born = int64(at)
	rec.count |= bornKnown
}

// DeliverHop records that the member at index i of the tracker's member
// list delivered the event at offset at from the tracker's epoch; an
// index outside the list is ignored (e.g. an observer outside the
// tracked group). With hop >= 0 it also observes the delivery latency
// (at minus the message's birth, in microseconds) and the event's age —
// its gossip hop count — into the tracker's pooled distributions. A
// repeated delivery of the event to the same member is observed nowhere
// but in Duplicates.
func (t *DeliveryTracker) DeliverHop(id gossip.EventID, i int, at time.Duration, hop int) {
	if i < 0 || i >= t.n {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, bits := t.record(id)
	now := int64(at)
	if rec.count == 0 || (rec.count&bornKnown == 0 && now < rec.born) {
		rec.born = now // best-effort birth time until Broadcast arrives
	}
	w, b := i/64, uint(i%64)
	if bits[w]&(1<<b) != 0 {
		t.duplicates++
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

// Duplicates counts repeated (event, member) deliveries.
func (t *DeliveryTracker) Duplicates() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duplicates
}

// LatencySnapshot captures the pooled birth→delivery latency
// distribution (microseconds) over all DeliverHop-reported deliveries.
func (t *DeliveryTracker) LatencySnapshot() observe.HistogramSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latency
}

// HopsSnapshot captures the pooled hop-count distribution over all
// DeliverHop-reported deliveries.
func (t *DeliveryTracker) HopsSnapshot() observe.HistogramSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hops
}

// each calls fn with every record. A slot of a run whose seq was never
// seen is zero: no delivery and no Broadcast.
func (t *DeliveryTracker) each(fn func(rec msgRec)) {
	for _, b := range t.blocks {
		for _, rec := range b.recs {
			if rec.count != 0 {
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
	// threshold×n members (Figs. 2, 8b).
	AtomicityPct float64
	// FullyDelivered counts messages that reached every member.
	FullyDelivered int
	// MinReceiversPct is the worst per-message coverage.
	MinReceiversPct float64
	// MeanTo99 is the mean time, over the messages that got there, from
	// birth to the delivery that brought a message to ⌈0.99·n⌉ members,
	// to the millisecond; AllReached99 reports whether every one did.
	MeanTo99     time.Duration
	AllReached99 bool
}

// Results aggregates messages born in [from, to). Zero times mean
// unbounded on that side. threshold ≤ 0 uses the default 95%.
func (t *DeliveryTracker) Results(from, to time.Time, threshold float64) Summary {
	if threshold <= 0 {
		threshold = DefaultAtomicityThreshold
	}
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
		full      int
		minCount  = t.n
		reached   int
		to99      time.Duration
	)
	need := int(threshold*float64(t.n)) + 1 // strictly more than threshold
	if need > t.n {
		need = t.n
	}
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	hasFrom, hasTo := !from.IsZero(), !to.IsZero()
	t.each(func(rec msgRec) {
		if hasFrom && rec.born < lo || hasTo && rec.born >= hi {
			return
		}
		got := rec.got()
		count++
		receivers += got
		minCount = min(minCount, got)
		if got >= need {
			atomics++
		}
		if got == t.n {
			full++
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
		FullyDelivered:   full,
		MinReceiversPct:  100 * float64(minCount) / float64(t.n),
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

// Series buckets messages by birth time and reports per-bucket
// reliability, for the dynamic-resource time series of Fig. 9(b).
func (t *DeliveryTracker) Series(start, end time.Time, bucket time.Duration, threshold float64) []BucketStat {
	if bucket <= 0 || !start.Before(end) {
		return nil
	}
	if threshold <= 0 {
		threshold = DefaultAtomicityThreshold
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	buckets := int(end.Sub(start)/bucket) + 1
	type acc struct {
		msgs      int
		receivers int // integer sum: exact, iteration-order independent
		atomics   int
	}
	accs := make([]acc, buckets)
	need := int(threshold*float64(t.n)) + 1
	if need > t.n {
		need = t.n
	}
	lo, hi := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.each(func(rec msgRec) {
		if rec.born < lo || rec.born >= hi {
			return
		}
		b := int(time.Duration(rec.born-lo) / bucket)
		accs[b].msgs++
		accs[b].receivers += rec.got()
		if rec.got() >= need {
			accs[b].atomics++
		}
	})
	out := make([]BucketStat, 0, buckets)
	for i, a := range accs {
		st := BucketStat{Start: start.Add(time.Duration(i) * bucket), Messages: a.msgs}
		if a.msgs > 0 {
			st.AtomicityPct = 100 * float64(a.atomics) / float64(a.msgs)
			st.MeanReceiversPct = 100 * float64(a.receivers) / (float64(t.n) * float64(a.msgs))
		}
		out = append(out, st)
	}
	return out
}
