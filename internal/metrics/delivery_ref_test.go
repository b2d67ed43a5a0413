package metrics

import (
	"fmt"
	"math"
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
// slabs and blocks, verbatim but for its names and the time to 99%:
// TestDeliveryTrackerMatchesReference holds the tracker to its answers.
// The reference still names members and keeps times; the tracker takes
// their index in the member list and offsets from its epoch.

type refMsgRec struct {
	born      time.Time
	bornKnown bool
	delivered []uint64 // bitset over member indexes
	count     int
	reached   time.Time // the delivery that brought count to ⌈0.99·n⌉
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
	need99  int
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
		need99:  int(math.Ceil(0.99 * float64(len(idx)))),
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
	if rec.count == t.need99 {
		rec.reached = now
	}
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
		reached   int
		to99      time.Duration
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
		if rec.count >= t.need99 {
			reached++
			to99 += max(rec.reached.Sub(rec.born), 0)
		}
	}
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

// trackerPair drives the tracker and the reference with the same calls
// and compares everything they report. The tracker's epoch is base, so
// times before it are negative offsets.
type trackerPair struct {
	got   *DeliveryTracker
	want  *refDeliveryTracker
	group []gossip.NodeID
	base  time.Time
}

func newTrackerPair(t *testing.T, group []gossip.NodeID, base time.Time) *trackerPair {
	t.Helper()
	got, err := NewDeliveryTracker(group, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefDeliveryTracker(group)
	if err != nil {
		t.Fatal(err)
	}
	return &trackerPair{got: got, want: want, group: group, base: base}
}

func (p *trackerPair) broadcast(id gossip.EventID, now time.Time) {
	p.got.Broadcast(id, now.Sub(p.base))
	p.want.Broadcast(id, now)
}

// deliver reports member i's delivery; an index outside the group is a
// stranger, which the reference knows by a name it does not track.
func (p *trackerPair) deliver(id gossip.EventID, i int, now time.Time, hop int) {
	node := gossip.NodeID("stranger")
	if i >= 0 && i < len(p.group) {
		node = p.group[i]
	}
	p.got.DeliverHop(id, i, now.Sub(p.base), hop)
	p.want.DeliverHop(id, node, now, hop)
}

func (p *trackerPair) check(t *testing.T, label string) {
	t.Helper()
	for _, w := range []struct {
		from, to  time.Time
		threshold float64
	}{
		{time.Time{}, time.Time{}, 0},
		{epoch.Add(20 * time.Second), epoch.Add(70 * time.Second), 0.5},
		{time.Time{}, epoch.Add(50 * time.Second), 0.02},
		{epoch.Add(30 * time.Second), time.Time{}, 1},
		{p.base.Add(-time.Second), p.base.Add(time.Second), 0},
		{time.Time{}, p.base, 0},
		{p.base, time.Time{}, 0.9},
	} {
		if g, r := p.got.Results(w.from, w.to, w.threshold), p.want.Results(w.from, w.to, w.threshold); g != r {
			t.Fatalf("%s: Results(%v, %v, %v) = %+v, reference %+v", label, w.from, w.to, w.threshold, g, r)
		}
	}
	for _, bucket := range []time.Duration{7 * time.Second, time.Minute} {
		for _, start := range []time.Time{epoch, p.base.Add(-13 * time.Second)} {
			g := p.got.Series(start, start.Add(60*time.Second), bucket, 0)
			r := p.want.Series(start, start.Add(60*time.Second), bucket, 0)
			if !slices.Equal(g, r) {
				t.Fatalf("%s: Series(%v, %v) = %+v, reference %+v", label, start, bucket, g, r)
			}
		}
	}
	if p.got.LatencySnapshot() != p.want.LatencySnapshot() {
		t.Fatalf("%s: latency distribution differs from the reference", label)
	}
	if p.got.HopsSnapshot() != p.want.HopsSnapshot() {
		t.Fatalf("%s: hop distribution differs from the reference", label)
	}
}

// TestDeliveryTrackerMatchesReference feeds the tracker and the
// reference the same calls and requires the same summaries, series and
// distributions. Random calls: deliveries before the broadcast,
// duplicate deliveries, origins and nodes outside the group, seqs
// repeated, out of order and far apart, birth and delivery times out of
// order and before the tracker's epoch, groups on both sides of the
// bitset's word edges. Times fall on 100 ms steps, so many messages are
// born exactly on a window's edges; a few messages reach every member.
// Scripted calls: seqs on both sides of every run
// and block boundary, and far seqs that the map holds and that their
// origin's directory later reaches.
func TestDeliveryTrackerMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 130}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xde11))
		n := 1 + rng.IntN(130)
		if seed <= uint64(len(sizes)) {
			n = sizes[seed-1]
		}
		group := members(n)
		base := epoch.Add(time.Duration(rng.IntN(60)) * time.Second)
		p := newTrackerPair(t, group, base)
		strangers := []gossip.NodeID{"x0", "x1", "x2"}
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
			now := epoch.Add(time.Duration(rng.IntN(1000)) * 100 * time.Millisecond)
			if rng.IntN(4) == 0 {
				p.broadcast(eid, now)
				continue
			}
			_, i := pick()
			p.deliver(eid, i, now, rng.IntN(12)-1)
		}
		// A few messages reach every member, in random order and at
		// random times, so the time to 99% is compared off its zero.
		for range 4 {
			origin := group[rng.IntN(n)]
			id := gossip.EventID{Origin: origin, Seq: next[origin]}
			next[origin]++
			if rng.IntN(2) == 0 {
				p.broadcast(id, epoch.Add(time.Duration(rng.IntN(1000))*100*time.Millisecond))
			}
			for _, i := range rng.Perm(n) {
				p.deliver(id, i, epoch.Add(time.Duration(rng.IntN(1000))*100*time.Millisecond), rng.IntN(12)-1)
			}
		}
		p.check(t, fmt.Sprintf("seed %d, n %d", seed, n))
	}

	for _, n := range sizes[2:] {
		group := members(n)
		p := newTrackerPair(t, group, epoch.Add(40*time.Second))
		rng := rand.New(rand.NewPCG(uint64(n), 0xb10c))
		runsPerBlock := 1 << p.got.blockShift
		at := func() time.Time { return epoch.Add(time.Duration(rng.IntN(1000)) * 100 * time.Millisecond) }
		deliver := func(origin int, seq uint64) {
			id := gossip.EventID{Origin: group[origin], Seq: seq}
			for range 3 {
				p.deliver(id, rng.IntN(n), at(), rng.IntN(12)-1)
			}
		}
		// Far seqs of origin 1: beyond every directory when first seen,
		// so the map holds them, and reached by origin 1's directory
		// below. A far seq of origin 0 the directory never reaches.
		far := []uint64{5*runLen + 3, 9 * runLen, 40*runLen - 1}
		for _, seq := range far {
			p.broadcast(gossip.EventID{Origin: group[1], Seq: seq}, at())
			deliver(1, seq)
		}
		deliver(0, 1<<33)
		// Origins 0 and 1 broadcast in turn across three blocks of runs,
		// so their runs alternate within every block; every seq next to
		// a run boundary is delivered as it is born.
		for seq := uint64(0); seq < uint64(3*runsPerBlock*runLen/2); seq++ {
			for o := range 2 {
				p.broadcast(gossip.EventID{Origin: group[o], Seq: seq}, at())
				if r := seq % runLen; r == 0 || r == 1 || r == runLen-1 {
					deliver(o, seq)
				}
			}
		}
		for _, seq := range far {
			deliver(1, seq)
		}
		// Every run and block boundary, from both sides, after the fact.
		for k := uint64(1); k < uint64(3*runsPerBlock/2); k++ {
			for o := range 2 {
				deliver(o, k*runLen-1)
				deliver(o, k*runLen)
			}
		}
		if len(p.got.blocks) < 3 {
			t.Fatalf("n %d: the scripted calls filled %d blocks, want at least 3", n, len(p.got.blocks))
		}
		if got := len(p.got.others); got != len(far)+1 {
			t.Fatalf("n %d: the map holds %d records, want the %d far seqs", n, got, len(far)+1)
		}
		p.check(t, fmt.Sprintf("boundaries, n %d", n))
	}
}

// TestDeliverHopAllocFree: recording a delivery of a known event
// allocates nothing, and new events cost only the blocks of records
// and the directories' doublings — a few dozen objects and well under
// 40 bytes per event for 10,000 events, not two objects per event.
func TestDeliverHopAllocFree(t *testing.T) {
	group := members(60)
	tr, err := NewDeliveryTracker(group, epoch)
	if err != nil {
		t.Fatal(err)
	}
	known := gossip.EventID{Origin: group[0], Seq: 0}
	tr.Broadcast(known, 0)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		tr.DeliverHop(known, i%len(group), time.Second, 1)
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
		tr.DeliverHop(eid, o, 0, 0)
		tr.Broadcast(eid, 0)
		tr.DeliverHop(eid, (o+1)%len(group), time.Second, 1)
	}
	runtime.ReadMemStats(&after)
	if objs := after.Mallocs - before.Mallocs; objs >= 64 {
		t.Fatalf("tracking %d new events from %d origins allocated %d objects, want fewer than 64", events, len(group), objs)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 400_000 {
		t.Fatalf("tracking %d new events from %d origins allocated %d bytes, want at most 400,000", events, len(group), bytes)
	}
	if got := tr.Results(time.Time{}, time.Time{}, 0).Messages; got != events+1 {
		t.Fatalf("messages = %d, want %d", got, events+1)
	}
}

// BenchmarkDeliverHop records deliveries in the paper's 60-member group
// over a part's worth of events (60 origins × 256 seqs, all broadcast
// up front). known: each op delivers an event to a member that has not
// had it yet, cycling through every (event, member) pair. new: each op
// is the first sight of an event, which creates its record; the tracker
// is rebuilt, off the clock, once every event is known.
func BenchmarkDeliverHop(b *testing.B) {
	group := members(60)
	const seqs = 256
	events := make([]gossip.EventID, 0, len(group)*seqs)
	for seq := range uint64(seqs) {
		for _, o := range group {
			events = append(events, gossip.EventID{Origin: o, Seq: seq})
		}
	}
	fresh := func(broadcast bool) *DeliveryTracker {
		tr, err := NewDeliveryTracker(group, epoch)
		if err != nil {
			b.Fatal(err)
		}
		if broadcast {
			for _, id := range events {
				tr.Broadcast(id, 0)
			}
		}
		return tr
	}
	b.Run("known", func(b *testing.B) {
		tr := fresh(true)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			pair := k % (len(events) * len(group))
			if k > 0 && pair == 0 {
				b.StopTimer()
				tr = fresh(true)
				b.StartTimer()
			}
			tr.DeliverHop(events[pair%len(events)], pair/len(events), time.Second, 2)
		}
	})
	b.Run("new", func(b *testing.B) {
		tr := fresh(false)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			e := k % len(events)
			if k > 0 && e == 0 {
				b.StopTimer()
				tr = fresh(false)
				b.StartTimer()
			}
			tr.DeliverHop(events[e], e%len(group), time.Second, 2)
		}
	})
}
