package metrics

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// The DeliveryTracker this package had before its records moved into
// slabs, verbatim but for its names: TestDeliveryTrackerMatchesReference
// holds the slab tracker to its answers. The reference still names
// members; the tracker takes their index in the member list.

type refMsgRec struct {
	born      time.Time
	bornKnown bool
	delivered []uint64 // bitset over member indexes
	count     int
}

// refDeliveryTracker records which members delivered which broadcast
// events and derives the paper's reliability measures. Deliveries
// reported through DeliverHop additionally feed two pooled
// distributions — per-delivery latency (microseconds since the
// message's birth) and hop count — using the same alloc-free
// histogram type the live runtime's debug endpoint serves.
type refDeliveryTracker struct {
	mu      sync.Mutex
	members map[gossip.NodeID]int
	n       int
	words   int
	msgs    map[gossip.EventID]*refMsgRec

	latency observe.Histogram // microseconds birth → delivery
	hops    observe.Histogram // event age at delivery
}

// newRefDeliveryTracker tracks deliveries across the given group.
func newRefDeliveryTracker(members []gossip.NodeID) (*refDeliveryTracker, error) {
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
	return &refDeliveryTracker{
		members: idx,
		n:       len(idx),
		words:   (len(idx) + 63) / 64,
		msgs:    make(map[gossip.EventID]*refMsgRec),
	}, nil
}

func (t *refDeliveryTracker) record(id gossip.EventID) *refMsgRec {
	rec, ok := t.msgs[id]
	if !ok {
		rec = &refMsgRec{delivered: make([]uint64, t.words)}
		t.msgs[id] = rec
	}
	return rec
}

// Broadcast registers the birth of a message. It may be called before
// or after the first DeliverHop for the same event (the origin delivers to
// itself inside Broadcast in the protocol).
func (t *refDeliveryTracker) Broadcast(id gossip.EventID, now time.Time) {
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
func (t *refDeliveryTracker) DeliverHop(id gossip.EventID, node gossip.NodeID, now time.Time, hop int) {
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
func (t *refDeliveryTracker) LatencySnapshot() observe.HistogramSnapshot {
	return t.latency.Snapshot()
}

// HopsSnapshot captures the pooled hop-count distribution over all
// DeliverHop-reported deliveries.
func (t *refDeliveryTracker) HopsSnapshot() observe.HistogramSnapshot {
	return t.hops.Snapshot()
}

// Results aggregates messages born in [from, to). Zero times mean
// unbounded on that side. threshold ≤ 0 uses the default 95%.
func (t *refDeliveryTracker) Results(from, to time.Time, threshold float64) Summary {
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

// Series buckets messages by birth time and reports per-bucket
// reliability, for the dynamic-resource time series of Fig. 9(b).
func (t *refDeliveryTracker) Series(start, end time.Time, bucket time.Duration, threshold float64) []BucketStat {
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

// TestDeliveryTrackerMatchesReference feeds the tracker and the
// reference the same random calls — deliveries before the broadcast,
// duplicate deliveries, origins and nodes outside the group, seqs
// repeated, out of order and far apart, birth times out of order — and
// requires the same summaries, series and distributions.
func TestDeliveryTrackerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xde11))
		group := members(1 + rng.IntN(130))
		strangers := []gossip.NodeID{"x0", "x1", "x2"}
		got, err := NewDeliveryTracker(group)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newRefDeliveryTracker(group)
		if err != nil {
			t.Fatal(err)
		}
		// pick draws a member or a stranger, and the index the tracker
		// knows it by: a stranger's is outside the member list.
		pick := func() (gossip.NodeID, int) {
			if rng.IntN(8) == 0 {
				k := rng.IntN(len(strangers))
				return strangers[k], []int{-1, len(group), len(group) + 7}[k]
			}
			i := rng.IntN(len(group))
			return group[i], i
		}
		next := map[gossip.NodeID]uint64{}
		for op := 0; op < 4000; op++ {
			origin, _ := pick()
			var seq uint64
			switch k := rng.IntN(10); {
			case k < 5: // the origin's next broadcast
				seq = next[origin]
				next[origin]++
			case k < 8: // an earlier one: duplicate or out of order
				seq = uint64(rng.IntN(int(next[origin]) + 1))
			case k < 9: // a little ahead
				seq = next[origin] + uint64(rng.IntN(200))
			default: // far ahead
				seq = 1<<40 + uint64(rng.IntN(4))
			}
			eid := gossip.EventID{Origin: origin, Seq: seq}
			now := epoch.Add(time.Duration(rng.IntN(100_000)) * time.Millisecond)
			if rng.IntN(4) == 0 {
				got.Broadcast(eid, now)
				want.Broadcast(eid, now)
				continue
			}
			node, i := pick()
			hop := rng.IntN(12) - 1
			got.DeliverHop(eid, i, now, hop)
			want.DeliverHop(eid, node, now, hop)
		}
		for _, w := range []struct {
			from, to  time.Time
			threshold float64
		}{
			{time.Time{}, time.Time{}, 0},
			{epoch.Add(20 * time.Second), epoch.Add(70 * time.Second), 0.5},
			{time.Time{}, epoch.Add(50 * time.Second), 0.02},
			{epoch.Add(30 * time.Second), time.Time{}, 1},
		} {
			if g, r := got.Results(w.from, w.to, w.threshold), want.Results(w.from, w.to, w.threshold); g != r {
				t.Fatalf("seed %d: Results(%v, %v, %v) = %+v, reference %+v", seed, w.from, w.to, w.threshold, g, r)
			}
		}
		for _, bucket := range []time.Duration{7 * time.Second, time.Minute} {
			g := got.Series(epoch, epoch.Add(100*time.Second), bucket, 0)
			r := want.Series(epoch, epoch.Add(100*time.Second), bucket, 0)
			if !slices.Equal(g, r) {
				t.Fatalf("seed %d: Series(%v) = %+v, reference %+v", seed, bucket, g, r)
			}
		}
		if got.LatencySnapshot() != want.LatencySnapshot() {
			t.Fatalf("seed %d: latency distribution differs from the reference", seed)
		}
		if got.HopsSnapshot() != want.HopsSnapshot() {
			t.Fatalf("seed %d: hop distribution differs from the reference", seed)
		}
	}
}

// TestDeliverHopAllocFree: recording a delivery of a known event
// allocates nothing, and new events cost only the slabs' and the
// index's doublings — a few dozen objects for 10,000 events, not two
// per event.
func TestDeliverHopAllocFree(t *testing.T) {
	group := members(60)
	tr, err := NewDeliveryTracker(group)
	if err != nil {
		t.Fatal(err)
	}
	known := gossip.EventID{Origin: group[0], Seq: 0}
	tr.Broadcast(known, epoch)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		tr.DeliverHop(known, i%len(group), epoch.Add(time.Second), 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("DeliverHop of a known event allocates %v times, want 0", allocs)
	}

	const events = 10_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < events; k++ {
		o := k % len(group)
		eid := gossip.EventID{Origin: group[o], Seq: uint64(k/len(group)) + 1}
		tr.DeliverHop(eid, o, epoch, 0)
		tr.Broadcast(eid, epoch)
		tr.DeliverHop(eid, (o+1)%len(group), epoch.Add(time.Second), 1)
	}
	runtime.ReadMemStats(&after)
	if objs := after.Mallocs - before.Mallocs; objs >= 64 {
		t.Fatalf("tracking %d new events from %d origins allocated %d objects, want fewer than 64", events, len(group), objs)
	}
	if got := tr.Results(time.Time{}, time.Time{}, 0).Messages; got != events+1 {
		t.Fatalf("messages = %d, want %d", got, events+1)
	}
}
