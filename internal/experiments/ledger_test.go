package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

var testEpoch = time.Unix(0, 0).UTC()

func eid(seq uint64) gossip.EventID {
	return gossip.EventID{Origin: "n000", Seq: seq}
}

// allResults aggregates every message the tests below give birth to.
func allResults(tr *deliveryTracker) Summary {
	return tr.Results(testEpoch.Add(-time.Hour), testEpoch.Add(time.Hour))
}

func TestDeliveryTrackerCoverage(t *testing.T) {
	tr := newDeliveryTracker(memberNames(10), testEpoch, noLock{})
	// Message 0: all 10 members. Message 1: 9 members. Message 2: 5.
	for seq, count := range []int{10, 9, 5} {
		tr.Broadcast(eid(uint64(seq)), 0)
		for i := 0; i < count; i++ {
			tr.DeliverHop(eid(uint64(seq)), i, time.Second, -1)
		}
	}
	sum := allResults(tr)
	if sum.Messages != 3 {
		t.Fatalf("messages = %d", sum.Messages)
	}
	// >95% of 10 means all 10: only message 0 qualifies.
	if sum.AtomicityPct < 33.2 || sum.AtomicityPct > 33.4 {
		t.Fatalf("atomicity = %v, want 33.3", sum.AtomicityPct)
	}
	wantMean := (100.0 + 90.0 + 50.0) / 3
	if sum.MeanReceiversPct < wantMean-0.01 || sum.MeanReceiversPct > wantMean+0.01 {
		t.Fatalf("mean receivers = %v, want %v", sum.MeanReceiversPct, wantMean)
	}
}

func TestDeliveryTrackerThresholdBoundary(t *testing.T) {
	tr := newDeliveryTracker(memberNames(20), testEpoch, noLock{})
	// Exactly 19/20 = 95%: NOT strictly more than 95%.
	tr.Broadcast(eid(0), 0)
	for i := 0; i < 19; i++ {
		tr.DeliverHop(eid(0), i, 0, -1)
	}
	if got := allResults(tr).AtomicityPct; got != 0 {
		t.Fatalf("19/20 counted as atomic: %v", got)
	}
	tr.DeliverHop(eid(0), 19, 0, -1)
	if got := allResults(tr).AtomicityPct; got != 100 {
		t.Fatalf("20/20 not atomic: %v", got)
	}
}

func TestDeliveryTrackerDuplicateDeliveries(t *testing.T) {
	tr := newDeliveryTracker(memberNames(4), testEpoch, noLock{})
	tr.Broadcast(eid(0), 0)
	tr.DeliverHop(eid(0), 1, 0, -1)
	if got := allResults(tr).MeanReceiversPct; got != 25 {
		t.Fatalf("mean = %v, want 25", got)
	}
	if tr.repeat.member >= 0 {
		t.Fatalf("repeat recorded before any repeated delivery: %+v", tr.repeat)
	}
	tr.DeliverHop(eid(0), 1, 0, -1) // duplicate
	tr.DeliverHop(eid(0), 2, 0, -1)
	tr.DeliverHop(eid(0), 2, 0, -1) // a later duplicate
	if tr.repeat.id != eid(0) || tr.repeat.member != 1 {
		t.Fatalf("repeat = %+v, want the first repeated delivery, %v to member 1", tr.repeat, eid(0))
	}
	if got := allResults(tr).MeanReceiversPct; got != 50 {
		t.Fatalf("mean = %v after the duplicates, want 50", got)
	}
}

func TestDeliveryTrackerHorizonFiltering(t *testing.T) {
	tr := newDeliveryTracker(memberNames(2), testEpoch, noLock{})
	tr.Broadcast(eid(0), 1*time.Second)
	tr.Broadcast(eid(1), 10*time.Second)
	tr.DeliverHop(eid(0), 0, 0, -1)
	tr.DeliverHop(eid(1), 0, 0, -1)
	if got := tr.Results(testEpoch, testEpoch.Add(5*time.Second)); got.Messages != 1 {
		t.Fatalf("horizon filter kept %d messages, want 1", got.Messages)
	}
	if got := tr.Results(testEpoch.Add(5*time.Second), testEpoch.Add(time.Hour)); got.Messages != 1 {
		t.Fatalf("from filter kept %d messages, want 1", got.Messages)
	}
}

func TestDeliveryTrackerDeliverBeforeBroadcast(t *testing.T) {
	tr := newDeliveryTracker(memberNames(2), testEpoch, noLock{})
	// Origin's local delivery can reach the tracker before Broadcast.
	tr.DeliverHop(eid(0), 0, time.Second, -1)
	tr.Broadcast(eid(0), 0)
	if got := allResults(tr); got.Messages != 1 || got.MeanReceiversPct != 50 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeliveryTrackerSeries(t *testing.T) {
	group := memberNames(4)
	tr := newDeliveryTracker(group, testEpoch, noLock{})
	// Bucket 0: one fully delivered message. Bucket 1: one message at
	// 50%. Bucket 2: empty.
	tr.Broadcast(eid(0), 0)
	for i := range group {
		tr.DeliverHop(eid(0), i, 0, -1)
	}
	tr.Broadcast(eid(1), 11*time.Second)
	tr.DeliverHop(eid(1), 0, 11*time.Second, -1)
	tr.DeliverHop(eid(1), 1, 11*time.Second, -1)

	series := tr.Series(testEpoch, testEpoch.Add(30*time.Second), 10*time.Second)
	if len(series) != 4 {
		t.Fatalf("series length %d", len(series))
	}
	if series[0].AtomicityPct != 100 || series[0].Messages != 1 {
		t.Fatalf("bucket 0: %+v", series[0])
	}
	if series[1].AtomicityPct != 0 || series[1].MeanReceiversPct != 50 {
		t.Fatalf("bucket 1: %+v", series[1])
	}
	if series[2].Messages != 0 {
		t.Fatalf("bucket 2: %+v", series[2])
	}
}

// TestDeliveryTrackerConcurrent has 8 goroutines record broadcasts and
// deliveries through the wall world's ledger lock, as its members'
// runners do, and requires what a serial run of the same calls gives.
func TestDeliveryTrackerConcurrent(t *testing.T) {
	group := memberNames(8)
	w, err := newWallWorld(Config{N: len(group)}, group)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	// Goroutine g broadcasts its member's events and delivers each to
	// three members, one of them twice.
	calls := func(tr *deliveryTracker, g int) {
		for i := range 500 {
			id := gossip.EventID{Origin: group[g], Seq: uint64(i)}
			tr.Broadcast(id, time.Duration(i)*time.Millisecond)
			for _, m := range []int{g, (g + i) % 8, (g + 3) % 8, g} {
				tr.DeliverHop(id, m, time.Duration(i+m)*time.Millisecond, m)
			}
		}
	}
	serial := newDeliveryTracker(group, testEpoch, noLock{})
	for g := range group {
		calls(serial, g)
	}
	locked := newDeliveryTracker(group, testEpoch, w.ledgerLock())
	var wg sync.WaitGroup
	for g := range group {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls(locked, g)
		}()
	}
	wg.Wait()
	if got := allResults(locked).Messages; got != 4000 {
		t.Fatalf("messages = %d, want 4000", got)
	}
	if got, want := allResults(locked), allResults(serial); got != want {
		t.Fatalf("concurrent Results %+v, serial %+v", got, want)
	}
	if locked.latency != serial.latency || locked.hops != serial.hops {
		t.Fatal("concurrent distributions differ from the serial run's")
	}
	// Which goroutine repeats first is up to the scheduler; every repeat
	// is an origin's second delivery to itself.
	for _, tr := range []*deliveryTracker{serial, locked} {
		if r := tr.repeat; r.member < 0 || group[r.member] != r.id.Origin {
			t.Fatalf("repeat = %+v, want an origin's second delivery to itself", r)
		}
	}
}

// TestDeliveryTrackerLocksAlike feeds one shuffled sequence of calls to
// a ledger under the virtual world's lock and one under the wall
// world's: the lock decides nothing, so every report is the same.
func TestDeliveryTrackerLocksAlike(t *testing.T) {
	group := memberNames(60)
	type call struct {
		id        gossip.EventID
		member    int
		at        time.Duration
		hop       int
		broadcast bool
	}
	var calls []call
	for o := range group {
		for seq := range uint64(40) {
			id := gossip.EventID{Origin: group[o], Seq: seq}
			calls = append(calls, call{id: id, at: time.Duration(seq) * time.Second, broadcast: true})
			for m := range group {
				if (o+m+int(seq))%7 != 0 {
					calls = append(calls, call{id: id, member: m, at: time.Duration(seq)*time.Second + time.Duration(m)*time.Millisecond, hop: m % 9})
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(7, 0x10c))
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	// A seq's first sight must follow its origin's order; a stable sort
	// by seq keeps the shuffle within each seq.
	slices.SortStableFunc(calls, func(a, b call) int { return int(a.id.Seq) - int(b.id.Seq) })

	w, err := newWallWorld(Config{N: len(group)}, group)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	v, err := newVirtualWorld(Config{N: len(group), Seed: 1}, group)
	if err != nil {
		t.Fatal(err)
	}
	unlocked := newDeliveryTracker(group, testEpoch, v.ledgerLock())
	locked := newDeliveryTracker(group, testEpoch, w.ledgerLock())
	for _, tr := range []*deliveryTracker{unlocked, locked} {
		for _, c := range calls {
			if c.broadcast {
				tr.Broadcast(c.id, c.at)
			} else {
				tr.DeliverHop(c.id, c.member, c.at, c.hop)
			}
		}
	}
	if got, want := allResults(locked), allResults(unlocked); got != want || got.Messages != 60*40 {
		t.Fatalf("locked Results %+v, unlocked %+v (want %d messages)", got, want, 60*40)
	}
	end := testEpoch.Add(40 * time.Second)
	if got, want := locked.Series(testEpoch, end, 5*time.Second), unlocked.Series(testEpoch, end, 5*time.Second); !slices.Equal(got, want) {
		t.Fatalf("locked Series %+v, unlocked %+v", got, want)
	}
	if locked.latency != unlocked.latency || locked.hops != unlocked.hops {
		t.Fatal("the latency or hop distribution depends on the lock")
	}
}

// TestDeliveryTrackerUnknownOrigins: an origin that is not a member's
// name — near misses of one included, and digits that would overflow an
// int — panics with the ledger's own message, never with an index out
// of range.
func TestDeliveryTrackerUnknownOrigins(t *testing.T) {
	group := memberNames(60)
	for _, origin := range []gossip.NodeID{"n60", "n0060", "n060", "n0001", "x000", "n", "", "n-01", "n12a", gossip.NodeID("n" + strings.Repeat("9", 25)), gossip.NodeID("n" + strings.Repeat("0", 24) + "1")} {
		for _, call := range []struct {
			name string
			fn   func(tr *deliveryTracker, id gossip.EventID)
		}{
			{"Broadcast", func(tr *deliveryTracker, id gossip.EventID) { tr.Broadcast(id, 0) }},
			{"DeliverHop", func(tr *deliveryTracker, id gossip.EventID) { tr.DeliverHop(id, 0, 0, 1) }},
		} {
			tr := newDeliveryTracker(group, testEpoch, noLock{})
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "experiments: event ") {
						t.Errorf("%s of an event of %q panicked with %q, want the ledger's message", call.name, origin, msg)
					}
				}()
				call.fn(tr, gossip.EventID{Origin: origin, Seq: 0})
			}()
		}
	}
	for i, name := range group {
		if got := memberIndex(group, name); got != i {
			t.Fatalf("memberIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if got := memberIndex(memberNames(1001), "n1000"); got != 1000 {
		t.Fatalf("memberIndex(n1000) in a group of 1001 = %d, want 1000", got)
	}
}

func TestDeliverHopDistributions(t *testing.T) {
	tr := newDeliveryTracker(memberNames(4), testEpoch, noLock{})
	tr.Broadcast(eid(1), 0)
	tr.DeliverHop(eid(1), 0, 0, 0)              // origin: latency 0, hop 0
	tr.DeliverHop(eid(1), 1, 8*time.Second, 2)  // 8s, 2 hops
	tr.DeliverHop(eid(1), 1, 9*time.Second, 3)  // duplicate: ignored
	tr.DeliverHop(eid(1), 2, 2*time.Second, -1) // hop-less: counted, not observed
	tr.DeliverHop(eid(1), 3, 16*time.Second, 4)

	lat, hops := tr.latency, tr.hops
	if lat.Count != 3 || hops.Count != 3 {
		t.Fatalf("observation counts latency=%d hops=%d, want 3", lat.Count, hops.Count)
	}
	if want := uint64((8*time.Second + 16*time.Second).Microseconds()); lat.Sum != want {
		t.Fatalf("latency sum %dµs, want %d", lat.Sum, want)
	}
	if hops.Sum != 0+2+4 {
		t.Fatalf("hops sum %d, want 6", hops.Sum)
	}
	if p99 := lat.Quantile(0.99); p99 < float64(8*time.Second.Microseconds()) {
		t.Fatalf("latency p99 %.0fµs implausibly low", p99)
	}
	// The hop-less Deliver still counted toward coverage.
	if got := allResults(tr).MeanReceiversPct; got != 100 {
		t.Fatalf("coverage %.1f%%, want 100%%", got)
	}
}

// TestMsgRecIs16Bytes pins the ledger's record size: the time to 99%
// rides in the record without growing it.
func TestMsgRecIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(msgRec{}); size != 16 {
		t.Fatalf("msgRec is %d bytes, want 16", size)
	}
}

func TestDeliveryTrackerTimeTo99(t *testing.T) {
	tr := newDeliveryTracker(memberNames(200), testEpoch, noLock{}) // ⌈0.99·200⌉ = 198
	tr.Broadcast(eid(0), time.Second)
	tr.Broadcast(eid(1), time.Second)
	for i := range 198 {
		tr.DeliverHop(eid(0), i, time.Second+time.Duration(i)*10*time.Millisecond, 1)
	}
	for i := range 197 {
		tr.DeliverHop(eid(1), i, 2*time.Second, 1)
	}
	got := allResults(tr)
	if got.AllReached99 || got.MeanTo99 != 1970*time.Millisecond {
		t.Fatalf("one of two messages at 99%% after 1.97s: got all=%v mean=%v", got.AllReached99, got.MeanTo99)
	}
	tr.DeliverHop(eid(1), 197, 4*time.Second, 1)
	tr.DeliverHop(eid(1), 198, 9*time.Second, 1) // past 99%: no effect
	got = allResults(tr)
	if !got.AllReached99 || got.MeanTo99 != (1970+3000)*time.Millisecond/2 {
		t.Fatalf("both messages at 99%% after 1.97s and 3s: got all=%v mean=%v", got.AllReached99, got.MeanTo99)
	}
}

// The map-based delivery tracker the ledger's runs and blocks replaced,
// verbatim but for its names, the time to 99% and the paths no run
// reaches: TestDeliveryTrackerMatchesReference holds the ledger to its
// answers. The reference still names members and keeps times; the
// ledger takes their index in the member list and offsets from its
// epoch.

type refMsgRec struct {
	born      time.Time
	bornKnown bool
	delivered []uint64 // bitset over member indexes
	count     int
	reached   time.Time // the delivery that brought count to ⌈0.99·n⌉
}

type refDeliveryTracker struct {
	members map[gossip.NodeID]int
	n       int
	need99  int
	words   int
	msgs    map[gossip.EventID]*refMsgRec

	latency observe.Histogram // microseconds birth → delivery
	hops    observe.Histogram // event age at delivery
}

func newRefDeliveryTracker(members []gossip.NodeID) *refDeliveryTracker {
	idx := make(map[gossip.NodeID]int, len(members))
	for _, m := range members {
		idx[m] = len(idx)
	}
	return &refDeliveryTracker{
		members: idx,
		n:       len(idx),
		need99:  int(math.Ceil(0.99 * float64(len(idx)))),
		words:   (len(idx) + 63) / 64,
		msgs:    make(map[gossip.EventID]*refMsgRec),
	}
}

func (t *refDeliveryTracker) record(id gossip.EventID) *refMsgRec {
	rec, ok := t.msgs[id]
	if !ok {
		rec = &refMsgRec{delivered: make([]uint64, t.words)}
		t.msgs[id] = rec
	}
	return rec
}

func (t *refDeliveryTracker) Broadcast(id gossip.EventID, now time.Time) {
	rec := t.record(id)
	rec.born = now
	rec.bornKnown = true
}

func (t *refDeliveryTracker) DeliverHop(id gossip.EventID, node gossip.NodeID, now time.Time, hop int) {
	i := t.members[node]
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

func (t *refDeliveryTracker) need() int {
	return min(int(atomicityThreshold*float64(t.n))+1, t.n) // strictly more than threshold
}

func (t *refDeliveryTracker) Results(from, to time.Time) Summary {
	var receivers, atomics, count, reached int
	var to99 time.Duration
	for _, rec := range t.msgs {
		if rec.born.Before(from) || !rec.born.Before(to) {
			continue
		}
		count++
		receivers += rec.count
		if rec.count >= t.need() {
			atomics++
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
		AllReached99:     reached == count,
	}
	if reached > 0 {
		s.MeanTo99 = to99 / time.Duration(reached)
	}
	return s
}

func (t *refDeliveryTracker) Series(start, end time.Time, bucket time.Duration) []BucketStat {
	type acc struct{ msgs, receivers, atomics int }
	accs := make([]acc, int(end.Sub(start)/bucket)+1)
	for _, rec := range t.msgs {
		if rec.born.Before(start) || !rec.born.Before(end) {
			continue
		}
		b := int(rec.born.Sub(start) / bucket)
		accs[b].msgs++
		accs[b].receivers += rec.count
		if rec.count >= t.need() {
			accs[b].atomics++
		}
	}
	out := make([]BucketStat, 0, len(accs))
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

// trackerPair drives the ledger and the reference with the same calls
// and compares everything they report. The ledger's epoch is base, so
// times before it are negative offsets.
type trackerPair struct {
	got   *deliveryTracker
	want  *refDeliveryTracker
	group []gossip.NodeID
	base  time.Time
}

func newTrackerPair(group []gossip.NodeID, base time.Time) *trackerPair {
	return &trackerPair{got: newDeliveryTracker(group, base, noLock{}), want: newRefDeliveryTracker(group), group: group, base: base}
}

func (p *trackerPair) broadcast(id gossip.EventID, now time.Time) {
	p.got.Broadcast(id, now.Sub(p.base))
	p.want.Broadcast(id, now)
}

func (p *trackerPair) deliver(id gossip.EventID, i int, now time.Time, hop int) {
	p.got.DeliverHop(id, i, now.Sub(p.base), hop)
	p.want.DeliverHop(id, p.group[i], now, hop)
}

func (p *trackerPair) check(t *testing.T, label string) {
	t.Helper()
	early, late := testEpoch.Add(-time.Hour), testEpoch.Add(time.Hour)
	for _, w := range []struct{ from, to time.Time }{
		{early, late},
		{testEpoch.Add(20 * time.Second), testEpoch.Add(70 * time.Second)},
		{early, testEpoch.Add(50 * time.Second)},
		{testEpoch.Add(30 * time.Second), late},
		{p.base.Add(-time.Second), p.base.Add(time.Second)},
		{early, p.base},
		{p.base, late},
	} {
		if g, r := p.got.Results(w.from, w.to), p.want.Results(w.from, w.to); g != r {
			t.Fatalf("%s: Results(%v, %v) = %+v, reference %+v", label, w.from, w.to, g, r)
		}
	}
	for _, bucket := range []time.Duration{7 * time.Second, time.Minute} {
		for _, start := range []time.Time{testEpoch, p.base.Add(-13 * time.Second)} {
			g := p.got.Series(start, start.Add(60*time.Second), bucket)
			r := p.want.Series(start, start.Add(60*time.Second), bucket)
			if !slices.Equal(g, r) {
				t.Fatalf("%s: Series(%v, %v) = %+v, reference %+v", label, start, bucket, g, r)
			}
		}
	}
	if p.got.latency != p.want.latency.Snapshot() {
		t.Fatalf("%s: latency distribution differs from the reference", label)
	}
	if p.got.hops != p.want.hops.Snapshot() {
		t.Fatalf("%s: hop distribution differs from the reference", label)
	}
}

// TestDeliveryTrackerMatchesReference feeds the ledger and the
// reference the same calls and requires the same summaries, series and
// distributions. Random calls: deliveries before the broadcast,
// duplicate deliveries, seqs repeated and out of order (but each seen
// first in its origin's order, as in a run), birth and delivery times
// out of order and before the ledger's epoch, groups on both sides of
// the bitset's word edges. Times fall on 100 ms steps, so many messages
// are born exactly on a window's edges; a few messages reach every
// member. Scripted calls: seqs on both sides of every run and block
// boundary.
func TestDeliveryTrackerMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 63, 64, 65, 130}
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xde11))
		n := 1 + rng.IntN(130)
		if seed <= uint64(len(sizes)) {
			n = sizes[seed-1]
		}
		group := memberNames(n)
		base := testEpoch.Add(time.Duration(rng.IntN(60)) * time.Second)
		p := newTrackerPair(group, base)
		next := map[gossip.NodeID]uint64{}
		for op := 0; op < 4000; op++ {
			origin := group[rng.IntN(n)]
			var seq uint64
			if rng.IntN(8) < 5 { // the origin's next broadcast
				seq = next[origin]
				next[origin]++
			} else { // an earlier one, duplicate or out of order, or the next
				seq = uint64(rng.IntN(int(next[origin]) + 1))
			}
			eid := gossip.EventID{Origin: origin, Seq: seq}
			now := testEpoch.Add(time.Duration(rng.IntN(1000)) * 100 * time.Millisecond)
			if rng.IntN(4) == 0 {
				p.broadcast(eid, now)
				continue
			}
			p.deliver(eid, rng.IntN(n), now, rng.IntN(12)-1)
		}
		// A few messages reach every member, in random order and at
		// random times, so the time to 99% is compared off its zero.
		for range 4 {
			origin := group[rng.IntN(n)]
			id := gossip.EventID{Origin: origin, Seq: next[origin]}
			next[origin]++
			if rng.IntN(2) == 0 {
				p.broadcast(id, testEpoch.Add(time.Duration(rng.IntN(1000))*100*time.Millisecond))
			}
			for _, i := range rng.Perm(n) {
				p.deliver(id, i, testEpoch.Add(time.Duration(rng.IntN(1000))*100*time.Millisecond), rng.IntN(12)-1)
			}
		}
		p.check(t, fmt.Sprintf("seed %d, n %d", seed, n))
	}

	for _, n := range sizes[2:] {
		group := memberNames(n)
		p := newTrackerPair(group, testEpoch.Add(40*time.Second))
		rng := rand.New(rand.NewPCG(uint64(n), 0xb10c))
		runsPerBlock := 1 << p.got.blockShift
		at := func() time.Time { return testEpoch.Add(time.Duration(rng.IntN(1000)) * 100 * time.Millisecond) }
		deliver := func(origin int, seq uint64) {
			id := gossip.EventID{Origin: group[origin], Seq: seq}
			for range 3 {
				p.deliver(id, rng.IntN(n), at(), rng.IntN(12)-1)
			}
		}
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
		p.check(t, fmt.Sprintf("boundaries, n %d", n))
	}
}

// TestDeliverHopAllocFree: recording a delivery of a known event
// allocates nothing, and new events cost only the blocks of records
// and the directories' doublings — a few dozen objects and well under
// 40 bytes per event for 10,000 events, not two objects per event.
func TestDeliverHopAllocFree(t *testing.T) {
	group := memberNames(60)
	tr := newDeliveryTracker(group, testEpoch, noLock{})
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
	if got := allResults(tr).Messages; got != events+1 {
		t.Fatalf("messages = %d, want %d", got, events+1)
	}
}

// BenchmarkDeliverHop records deliveries in the paper's 60-member group,
// under the virtual world's lock as in every simulated run, over a
// part's worth of events (60 origins × 256 seqs, all broadcast
// up front). known: each op delivers an event to a member that has not
// had it yet, cycling through every (event, member) pair. new: each op
// is the first sight of an event, which creates its record; the tracker
// is rebuilt, off the clock, once every event is known.
func BenchmarkDeliverHop(b *testing.B) {
	group := memberNames(60)
	const seqs = 256
	events := make([]gossip.EventID, 0, len(group)*seqs)
	for seq := range uint64(seqs) {
		for _, o := range group {
			events = append(events, gossip.EventID{Origin: o, Seq: seq})
		}
	}
	fresh := func(broadcast bool) *deliveryTracker {
		tr := newDeliveryTracker(group, testEpoch, noLock{})
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
