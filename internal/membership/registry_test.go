package membership

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"adaptivegossip/internal/gossip"
)

func ids(names ...string) []gossip.NodeID {
	out := make([]gossip.NodeID, len(names))
	for i, n := range names {
		out[i] = gossip.NodeID(n)
	}
	return out
}

func TestRegistryAddRemove(t *testing.T) {
	r := NewRegistry(ids("a", "b")...)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Add("a") {
		t.Fatal("duplicate Add returned true")
	}
	if !r.Add("c") {
		t.Fatal("new Add returned false")
	}
	if !r.Remove("b") {
		t.Fatal("Remove of member returned false")
	}
	if r.Remove("b") {
		t.Fatal("Remove of absent returned true")
	}
	if r.Contains("b") {
		t.Fatal("b still contained after removal")
	}
	if !r.Contains("c") {
		t.Fatal("c lost")
	}
	got := r.IDs()
	if len(got) != 2 {
		t.Fatalf("IDs = %v", got)
	}
}

func TestRegistrySampleExcludesSelfAndDuplicates(t *testing.T) {
	r := NewRegistry(ids("a", "b", "c", "d", "e")...)
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		got := r.AppendPeers(nil, "a", 3, rng)
		if len(got) != 3 {
			t.Fatalf("sample size %d, want 3", len(got))
		}
		seen := map[gossip.NodeID]bool{}
		for _, id := range got {
			if id == "a" {
				t.Fatal("sample included self")
			}
			if seen[id] {
				t.Fatalf("duplicate %s in sample", id)
			}
			seen[id] = true
		}
	}
}

func TestRegistrySampleWholeGroup(t *testing.T) {
	r := NewRegistry(ids("a", "b", "c")...)
	rng := rand.New(rand.NewPCG(5, 6))
	got := r.AppendPeers(nil, "a", 10, rng)
	if len(got) != 2 {
		t.Fatalf("sample = %v, want both other members", got)
	}
}

func TestRegistrySampleEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	empty := NewRegistry()
	if got := empty.AppendPeers(nil, "a", 4, rng); got != nil {
		t.Fatalf("empty registry sample = %v", got)
	}
	solo := NewRegistry("a")
	if got := solo.AppendPeers(nil, "a", 4, rng); got != nil {
		t.Fatalf("solo registry sample = %v", got)
	}
	r := NewRegistry(ids("a", "b")...)
	if got := r.AppendPeers(nil, "a", 0, rng); got != nil {
		t.Fatalf("k=0 sample = %v", got)
	}
	// Sampling from a registry that does not contain self still works.
	if got := r.AppendPeers(nil, "zz", 2, rng); len(got) != 2 {
		t.Fatalf("outsider sample = %v", got)
	}
}

func TestRegistrySampleIsRoughlyUniform(t *testing.T) {
	r := NewRegistry(ids("a", "b", "c", "d", "e", "f")...)
	rng := rand.New(rand.NewPCG(9, 10))
	counts := map[gossip.NodeID]int{}
	const trials = 6000
	for i := 0; i < trials; i++ {
		for _, id := range r.AppendPeers(nil, "a", 2, rng) {
			counts[id]++
		}
	}
	// Expected per member: trials*2/5 = 2400. Allow ±15%.
	for _, id := range ids("b", "c", "d", "e", "f") {
		c := counts[id]
		if c < 2040 || c > 2760 {
			t.Fatalf("member %s drawn %d times, want ≈2400", id, c)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry(ids("a", "b", "c", "d")...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			r.Add("x")
			r.Remove("x")
		}
	}()
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 1000; i++ {
		r.AppendPeers(nil, "a", 2, rng)
		r.Len()
	}
	<-done
}

// TestRegistryConcurrentJoinLeaveSample hammers the registry from many
// goroutines — the detector-driven eviction path (Remove from a node's
// gossip goroutine) racing joins, re-admissions and samplers. Run under
// -race; the invariant checks catch index corruption.
func TestRegistryConcurrentJoinLeaveSample(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 32; i++ {
		reg.Add(gossip.NodeID(fmt.Sprintf("base-%02d", i)))
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 77))
			churn := gossip.NodeID(fmt.Sprintf("churn-%d", w))
			for i := 0; i < 2000; i++ {
				switch i % 4 {
				case 0:
					reg.Add(churn)
				case 1:
					reg.Remove(churn)
				case 2:
					// Detector-style eviction/readmission of a shared member.
					shared := gossip.NodeID(fmt.Sprintf("base-%02d", rng.IntN(8)))
					if i%8 == 2 {
						reg.Remove(shared)
					} else {
						reg.Add(shared)
					}
				case 3:
					got := reg.AppendPeers(nil, churn, 4, rng)
					seen := make(map[gossip.NodeID]bool, len(got))
					for _, id := range got {
						if id == churn {
							t.Errorf("sample returned self")
							return
						}
						if seen[id] {
							t.Errorf("sample returned duplicate %s", id)
							return
						}
						seen[id] = true
					}
				}
			}
		}()
	}
	wg.Wait()
	// Index invariant: every listed id resolves through Contains, and
	// the stable members all survived.
	ids := reg.IDs()
	if len(ids) != reg.Len() {
		t.Fatalf("IDs()=%d but Len()=%d", len(ids), reg.Len())
	}
	for _, id := range ids {
		if !reg.Contains(id) {
			t.Fatalf("listed member %s not found by Contains", id)
		}
	}
	for i := 8; i < 32; i++ {
		if !reg.Contains(gossip.NodeID(fmt.Sprintf("base-%02d", i))) {
			t.Fatalf("untouched member base-%02d lost", i)
		}
	}
}

// BenchmarkRegistrySample measures fanout target selection from a
// 60-member registry.
func BenchmarkRegistrySample(b *testing.B) {
	ids := make([]gossip.NodeID, 60)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	reg := NewRegistry(ids...)
	rng := rand.New(rand.NewPCG(5, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.AppendPeers(nil, "n000", 4, rng)
	}
}
