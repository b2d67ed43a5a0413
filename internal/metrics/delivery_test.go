package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"adaptivegossip/internal/gossip"
)

var epoch = time.Unix(0, 0).UTC()

func members(n int) []gossip.NodeID {
	out := make([]gossip.NodeID, n)
	for i := range out {
		out[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	return out
}

func eid(seq uint64) gossip.EventID {
	return gossip.EventID{Origin: "n000", Seq: seq}
}

func TestNewDeliveryTrackerValidation(t *testing.T) {
	if _, err := NewDeliveryTracker(nil, epoch); err == nil {
		t.Fatal("empty members accepted")
	}
	if _, err := NewDeliveryTracker([]gossip.NodeID{"a", "a"}, epoch); err == nil {
		t.Fatal("duplicate members accepted")
	}
}

func TestDeliveryTrackerCoverage(t *testing.T) {
	group := members(10)
	tr, err := NewDeliveryTracker(group, epoch)
	if err != nil {
		t.Fatal(err)
	}
	// Message 0: all 10 members. Message 1: 9 members. Message 2: 5.
	for seq, count := range map[uint64]int{0: 10, 1: 9, 2: 5} {
		tr.Broadcast(eid(seq), 0)
		for i := 0; i < count; i++ {
			tr.DeliverHop(eid(seq), i, time.Second, -1)
		}
	}
	sum := tr.Results(time.Time{}, time.Time{}, 0.95)
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
	if sum.FullyDelivered != 1 {
		t.Fatalf("fully delivered = %d", sum.FullyDelivered)
	}
	if sum.MinReceiversPct != 50 {
		t.Fatalf("min receivers = %v", sum.MinReceiversPct)
	}
}

func TestDeliveryTrackerThresholdBoundary(t *testing.T) {
	group := members(20)
	tr, _ := NewDeliveryTracker(group, epoch)
	// Exactly 19/20 = 95%: NOT strictly more than 95%.
	tr.Broadcast(eid(0), 0)
	for i := 0; i < 19; i++ {
		tr.DeliverHop(eid(0), i, 0, -1)
	}
	if got := tr.Results(time.Time{}, time.Time{}, 0.95).AtomicityPct; got != 0 {
		t.Fatalf("19/20 counted as atomic: %v", got)
	}
	tr.DeliverHop(eid(0), 19, 0, -1)
	if got := tr.Results(time.Time{}, time.Time{}, 0.95).AtomicityPct; got != 100 {
		t.Fatalf("20/20 not atomic: %v", got)
	}
}

func TestDeliveryTrackerDuplicateAndUnknownDeliveries(t *testing.T) {
	group := members(4)
	tr, _ := NewDeliveryTracker(group, epoch)
	tr.Broadcast(eid(0), 0)
	tr.DeliverHop(eid(0), 1, 0, -1)
	tr.DeliverHop(eid(0), 1, 0, -1)          // duplicate
	tr.DeliverHop(eid(0), len(group), 0, -1) // not a member
	tr.DeliverHop(eid(0), -1, 0, -1)
	got := tr.Results(time.Time{}, time.Time{}, 0)
	if got.MeanReceiversPct != 25 {
		t.Fatalf("mean = %v, want 25", got.MeanReceiversPct)
	}
	if d := tr.Duplicates(); d != 1 {
		t.Fatalf("Duplicates = %d, want the one repeated delivery (strangers are not members)", d)
	}
}

func TestDeliveryTrackerHorizonFiltering(t *testing.T) {
	group := members(2)
	tr, _ := NewDeliveryTracker(group, epoch)
	tr.Broadcast(eid(0), 1*time.Second)
	tr.Broadcast(eid(1), 10*time.Second)
	tr.DeliverHop(eid(0), 0, 0, -1)
	tr.DeliverHop(eid(1), 0, 0, -1)
	got := tr.Results(time.Time{}, epoch.Add(5*time.Second), 0)
	if got.Messages != 1 {
		t.Fatalf("horizon filter kept %d messages, want 1", got.Messages)
	}
	got = tr.Results(epoch.Add(5*time.Second), time.Time{}, 0)
	if got.Messages != 1 {
		t.Fatalf("from filter kept %d messages, want 1", got.Messages)
	}
}

func TestDeliveryTrackerDeliverBeforeBroadcast(t *testing.T) {
	group := members(2)
	tr, _ := NewDeliveryTracker(group, epoch)
	// Origin's local delivery can reach the tracker before Broadcast.
	tr.DeliverHop(eid(0), 0, time.Second, -1)
	tr.Broadcast(eid(0), 0)
	got := tr.Results(time.Time{}, time.Time{}, 0)
	if got.Messages != 1 || got.MeanReceiversPct != 50 {
		t.Fatalf("got %+v", got)
	}
}

func TestDeliveryTrackerSeries(t *testing.T) {
	group := members(4)
	tr, _ := NewDeliveryTracker(group, epoch)
	// Bucket 0: one fully delivered message. Bucket 1: one message at
	// 50%. Bucket 2: empty.
	tr.Broadcast(eid(0), 0)
	for i := range group {
		tr.DeliverHop(eid(0), i, 0, -1)
	}
	tr.Broadcast(eid(1), 11*time.Second)
	tr.DeliverHop(eid(1), 0, 11*time.Second, -1)
	tr.DeliverHop(eid(1), 1, 11*time.Second, -1)

	series := tr.Series(epoch, epoch.Add(30*time.Second), 10*time.Second, 0.95)
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
	if tr.Series(epoch, epoch, time.Second, 0) != nil {
		t.Fatal("empty window should return nil")
	}
}

func TestDeliveryTrackerConcurrent(t *testing.T) {
	group := members(8)
	tr, _ := NewDeliveryTracker(group, epoch)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := gossip.EventID{Origin: group[g], Seq: uint64(i)}
				tr.Broadcast(id, 0)
				tr.DeliverHop(id, (g+i)%8, 0, -1)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Results(time.Time{}, time.Time{}, 0).Messages; got != 4000 {
		t.Fatalf("messages = %d, want 4000", got)
	}
}

func TestDeliverHopDistributions(t *testing.T) {
	group := members(4)
	tr, err := NewDeliveryTracker(group, epoch)
	if err != nil {
		t.Fatal(err)
	}
	tr.Broadcast(eid(1), 0)
	tr.DeliverHop(eid(1), 0, 0, 0)              // origin: latency 0, hop 0
	tr.DeliverHop(eid(1), 1, 8*time.Second, 2)  // 8s, 2 hops
	tr.DeliverHop(eid(1), 1, 9*time.Second, 3)  // duplicate: ignored
	tr.DeliverHop(eid(1), 4, time.Second, 1)    // unknown: ignored
	tr.DeliverHop(eid(1), 2, 2*time.Second, -1) // hop-less: counted, not observed
	tr.DeliverHop(eid(1), 3, 16*time.Second, 4)

	lat, hops := tr.LatencySnapshot(), tr.HopsSnapshot()
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
	if got := tr.Results(time.Time{}, time.Time{}, 0).MeanReceiversPct; got != 100 {
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
	group := members(200) // ⌈0.99·200⌉ = 198
	tr, _ := NewDeliveryTracker(group, epoch)
	tr.Broadcast(eid(0), time.Second)
	tr.Broadcast(eid(1), time.Second)
	for i := range 198 {
		tr.DeliverHop(eid(0), i, time.Second+time.Duration(i)*10*time.Millisecond, 1)
	}
	for i := range 197 {
		tr.DeliverHop(eid(1), i, 2*time.Second, 1)
	}
	got := tr.Results(time.Time{}, time.Time{}, 0)
	if got.AllReached99 || got.MeanTo99 != 1970*time.Millisecond {
		t.Fatalf("one of two messages at 99%% after 1.97s: got all=%v mean=%v", got.AllReached99, got.MeanTo99)
	}
	tr.DeliverHop(eid(1), 197, 4*time.Second, 1)
	tr.DeliverHop(eid(1), 198, 9*time.Second, 1) // past 99%: no effect
	got = tr.Results(time.Time{}, time.Time{}, 0)
	if !got.AllReached99 || got.MeanTo99 != (1970+3000)*time.Millisecond/2 {
		t.Fatalf("both messages at 99%% after 1.97s and 3s: got all=%v mean=%v", got.AllReached99, got.MeanTo99)
	}
}
