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

type msgRec struct {
	born      time.Time
	bornKnown bool
	delivered []uint64 // bitset over member indexes
	count     int
}

// DeliveryTracker records which members delivered which broadcast
// events and derives the paper's reliability measures. Deliveries
// reported through DeliverHop additionally feed two pooled
// distributions — per-delivery latency (microseconds since the
// message's birth) and hop count — using the same alloc-free
// histogram type the live runtime's debug endpoint serves.
type DeliveryTracker struct {
	mu      sync.Mutex
	members map[gossip.NodeID]int
	n       int
	words   int
	msgs    map[gossip.EventID]*msgRec

	latency observe.Histogram // microseconds birth → delivery
	hops    observe.Histogram // event age at delivery
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
		msgs:    make(map[gossip.EventID]*msgRec),
	}, nil
}

func (t *DeliveryTracker) record(id gossip.EventID) *msgRec {
	rec, ok := t.msgs[id]
	if !ok {
		rec = &msgRec{delivered: make([]uint64, t.words)}
		t.msgs[id] = rec
	}
	return rec
}

// Broadcast registers the birth of a message. It may be called before
// or after the first DeliverHop for the same event (the origin delivers to
// itself inside Broadcast in the protocol).
func (t *DeliveryTracker) Broadcast(id gossip.EventID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.record(id)
	rec.born = now
	rec.bornKnown = true
}

// DeliverHop records that node delivered the event; unknown nodes are
// ignored (e.g. observers outside the tracked group). With hop >= 0 it
// also observes the delivery latency (now minus the message's birth, in
// microseconds) and the event's age — its gossip hop count — into the
// tracker's pooled distributions. Duplicate deliveries are not observed
// twice.
func (t *DeliveryTracker) DeliverHop(id gossip.EventID, node gossip.NodeID, now time.Time, hop int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.members[node]
	if !ok {
		return
	}
	rec := t.record(id)
	if !rec.bornKnown && (rec.count == 0 || now.Before(rec.born)) {
		rec.born = now // best-effort birth time until Broadcast arrives
	}
	w, b := i/64, uint(i%64)
	if rec.delivered[w]&(1<<b) != 0 {
		return
	}
	rec.delivered[w] |= 1 << b
	rec.count++
	if hop >= 0 {
		t.latency.ObserveInt(now.Sub(rec.born).Microseconds())
		t.hops.ObserveInt(int64(hop))
	}
}

// LatencySnapshot captures the pooled birth→delivery latency
// distribution (microseconds) over all DeliverHop-reported deliveries.
func (t *DeliveryTracker) LatencySnapshot() observe.HistogramSnapshot {
	return t.latency.Snapshot()
}

// HopsSnapshot captures the pooled hop-count distribution over all
// DeliverHop-reported deliveries.
func (t *DeliveryTracker) HopsSnapshot() observe.HistogramSnapshot {
	return t.hops.Snapshot()
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
		// exact and independent of map iteration order — float
		// accumulation here would make otherwise-deterministic
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
	for _, rec := range t.msgs {
		if !from.IsZero() && rec.born.Before(from) {
			continue
		}
		if !to.IsZero() && !rec.born.Before(to) {
			continue
		}
		count++
		receivers += rec.count
		if rec.count < minCount {
			minCount = rec.count
		}
		if rec.count >= need {
			atomics++
		}
		if rec.count == t.n {
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
	for _, rec := range t.msgs {
		if rec.born.Before(start) || !rec.born.Before(end) {
			continue
		}
		b := int(rec.born.Sub(start) / bucket)
		accs[b].msgs++
		accs[b].receivers += rec.count
		if rec.count >= need {
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
