// Package metrics implements the measurements the paper's evaluation
// reports: per-message delivery coverage (average % of receivers,
// Fig. 8a), atomicity (share of messages reaching >95% of members,
// Figs. 2, 8b, 9b), input/output rates (Figs. 6, 7, 9a) and the average
// age of dropped messages (Figs. 4, 7c). All collectors are safe for
// concurrent use so the same code instruments both the single-threaded
// simulator and the goroutine runtime.
package metrics

import (
	"fmt"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// DefaultAtomicityThreshold is the paper's reliability target: a
// message counts as atomically delivered when it reaches more than 95%
// of the group.
const DefaultAtomicityThreshold = 0.95

// msgRec is one message's record. It lives by value in the tracker's
// slab; its delivery bitset is the slab index's words of the tracker's
// bits.
type msgRec struct {
	born      time.Time
	count     int32
	bornKnown bool
}

// DeliveryTracker records which members delivered which broadcast
// events and derives the paper's reliability measures. Deliveries
// reported through DeliverHop additionally feed two pooled
// distributions — per-delivery latency (microseconds since the
// message's birth) and hop count — counted under the tracker's lock in
// the bucket layout the live runtime's debug endpoint serves.
//
// Tracking allocates nothing per event: records and bitsets live in
// two slabs that grow by doubling, and a member's broadcasts — which
// gossip.Node numbers 0, 1, 2, … — are found through a dense slice per
// origin, indexed by seq. A map holds only the records the dense
// index cannot: origins outside the member list, and seqs far beyond
// every record so far.
type DeliveryTracker struct {
	mu      sync.Mutex
	members map[gossip.NodeID]int
	n       int
	words   int

	recs   []msgRec
	bits   []uint64                 // words per record, parallel to recs
	bySeq  [][]int32                // member origin → seq → slab index + 1, 0 for none
	spare  []int32                  // uncut tail of the block bySeq's slices come from
	cut    int                      // int32s cut from blocks so far
	others map[gossip.EventID]int32 // what bySeq cannot index

	latency    observe.HistogramSnapshot // microseconds birth → delivery
	hops       observe.HistogramSnapshot // event age at delivery
	duplicates uint64                    // deliveries of an event to a member that had it
}

// NewDeliveryTracker tracks deliveries across the given group.
func NewDeliveryTracker(members []gossip.NodeID) (*DeliveryTracker, error) {
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
	return &DeliveryTracker{
		members: idx,
		n:       len(idx),
		words:   (len(idx) + 63) / 64,
		bySeq:   make([][]int32, len(idx)),
	}, nil
}

// record returns the slab index of id's record, creating the record at
// first sight. A record stays where its id was first indexed, so the
// map is consulted first.
func (t *DeliveryTracker) record(id gossip.EventID) int {
	if r, ok := t.others[id]; ok {
		return int(r)
	}
	if o, ok := t.members[id.Origin]; ok {
		if slot := t.seqSlot(o, id.Seq); slot != nil {
			if *slot == 0 {
				*slot = t.newRecord() + 1
			}
			return int(*slot - 1)
		}
	}
	if t.others == nil {
		t.others = make(map[gossip.EventID]int32)
	}
	r := t.newRecord()
	t.others[id] = r
	return int(r)
}

// seqSlot returns the dense index entry of member origin o's event seq,
// growing o's slice by doubling to reach it, or nil for a seq so far
// ahead of every record that indexing it densely would waste memory.
// The grown slices are cut from blocks that double too, so the index
// costs a handful of allocations however many origins there are.
func (t *DeliveryTracker) seqSlot(o int, seq uint64) *int32 {
	idx := t.bySeq[o]
	if seq < uint64(len(idx)) {
		return &idx[seq]
	}
	if seq >= 2*uint64(len(t.recs))+64 {
		return nil
	}
	n := max(2*len(idx), 16)
	for uint64(n) <= seq {
		n *= 2
	}
	if len(t.spare) < n {
		t.spare = make([]int32, max(n, t.cut, 1024))
	}
	grown := t.spare[:n:n]
	t.spare = t.spare[n:]
	t.cut += n
	copy(grown, idx)
	t.bySeq[o] = grown
	return &grown[seq]
}

// newRecord appends a zero record and bitset to the slabs and returns
// its index. The slabs double when full.
func (t *DeliveryTracker) newRecord() int32 {
	if len(t.recs) == cap(t.recs) {
		c := max(2*cap(t.recs), 64)
		recs := make([]msgRec, len(t.recs), c)
		copy(recs, t.recs)
		bits := make([]uint64, len(t.bits), c*t.words)
		copy(bits, t.bits)
		t.recs, t.bits = recs, bits
	}
	t.recs = t.recs[:len(t.recs)+1]
	t.bits = t.bits[:len(t.bits)+t.words]
	return int32(len(t.recs) - 1)
}

// Broadcast registers the birth of a message. It may be called before
// or after the first DeliverHop for the same event (the origin delivers to
// itself inside Broadcast in the protocol).
func (t *DeliveryTracker) Broadcast(id gossip.EventID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := &t.recs[t.record(id)]
	rec.born = now
	rec.bornKnown = true
}

// DeliverHop records that the member at index i of the tracker's member
// list delivered the event; an index outside the list is ignored (e.g.
// an observer outside the tracked group). With hop >= 0 it also
// observes the delivery latency (now minus the message's birth, in
// microseconds) and the event's age — its gossip hop count — into the
// tracker's pooled distributions. A repeated delivery of the event to
// the same member is observed nowhere but in Duplicates.
func (t *DeliveryTracker) DeliverHop(id gossip.EventID, i int, now time.Time, hop int) {
	if i < 0 || i >= t.n {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.record(id)
	rec := &t.recs[r]
	if !rec.bornKnown && (rec.count == 0 || now.Before(rec.born)) {
		rec.born = now // best-effort birth time until Broadcast arrives
	}
	w, b := r*t.words+i/64, uint(i%64)
	if t.bits[w]&(1<<b) != 0 {
		t.duplicates++
		return
	}
	t.bits[w] |= 1 << b
	rec.count++
	if hop >= 0 {
		t.latency.Add(uint64(max(now.Sub(rec.born).Microseconds(), 0)))
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
	)
	need := int(threshold*float64(t.n)) + 1 // strictly more than threshold
	if need > t.n {
		need = t.n
	}
	for _, rec := range t.recs {
		if !from.IsZero() && rec.born.Before(from) {
			continue
		}
		if !to.IsZero() && !rec.born.Before(to) {
			continue
		}
		got := int(rec.count)
		count++
		receivers += got
		minCount = min(minCount, got)
		if got >= need {
			atomics++
		}
		if got == t.n {
			full++
		}
	}
	if count == 0 {
		return Summary{}
	}
	return Summary{
		Messages:         count,
		MeanReceiversPct: 100 * float64(receivers) / (float64(t.n) * float64(count)),
		AtomicityPct:     100 * float64(atomics) / float64(count),
		FullyDelivered:   full,
		MinReceiversPct:  100 * float64(minCount) / float64(t.n),
	}
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
	for _, rec := range t.recs {
		if rec.born.Before(start) || !rec.born.Before(end) {
			continue
		}
		b := int(rec.born.Sub(start) / bucket)
		accs[b].msgs++
		accs[b].receivers += int(rec.count)
		if int(rec.count) >= need {
			accs[b].atomics++
		}
	}
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
