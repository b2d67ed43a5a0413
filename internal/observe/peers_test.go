package observe

import (
	"fmt"
	"testing"
)

// TestPeerTableCapacityBound floods a full table with forged peer ids:
// it admits none of them, counts each in Overflow, and keeps serving
// the peers it holds.
func TestPeerTableCapacityBound(t *testing.T) {
	const capacity, forged = 16, 100
	pt := NewPeerTable(capacity)
	known := make([]*PeerStats, capacity)
	for i := range known {
		known[i] = pt.Get(fmt.Sprintf("peer-%02d", i))
		known[i].MessagesReceived.Inc()
	}
	for i := range forged {
		if ps := pt.Get(fmt.Sprintf("forged-%03d", i)); ps != nil {
			t.Fatalf("forged peer %d admitted past the capacity", i)
		}
	}
	if got := pt.Len(); got != capacity {
		t.Fatalf("Len = %d after the flood, want the capacity %d", got, capacity)
	}
	if got := pt.Overflow(); got != forged {
		t.Fatalf("Overflow = %d, want the %d forged ids", got, forged)
	}
	for i, want := range known {
		if ps := pt.Get(fmt.Sprintf("peer-%02d", i)); ps != want || ps.MessagesReceived.Load() != 1 {
			t.Fatalf("known peer %d not served after the flood", i)
		}
	}
	if got := pt.Overflow(); got != forged {
		t.Fatalf("Overflow = %d after serving known peers, want %d", got, forged)
	}
}
