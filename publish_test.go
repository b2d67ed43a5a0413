package adaptivegossip

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/race"
)

// TestPublishAllocFree: an offered publish costs the caller's side
// nothing, whether the token bucket admits it (the baseline admits
// everything) or refuses it — no channel, wrapper or closure for the
// step under the member's lock. The event itself is the payload the
// caller handed over. Measured on a started group that is otherwise
// idle (an hour-long period: AllocsPerRun counts the whole process),
// over the UDP fabric, every extension on.
func TestPublishAllocFree(t *testing.T) {
	for _, verdict := range []string{"admitted", "refused"} {
		t.Run("udp/"+verdict, func(t *testing.T) {
			cfg := fastConfig()
			cfg.Recovery.Enabled = true
			cfg.Failure.Enabled = true
			cfg.Observability.HealthDigests = true
			cfg.Period = time.Hour
			cfg.Adaptive = verdict == "refused"
			cluster, err := NewCluster(2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			if err := cluster.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			payload := []byte("offered")
			// Warm-up: the bucket is empty
			// (refused) or buffer, id cache and recovery store are past
			// their capacities and evicting (admitted).
			const warmup, runs = 4096, 200
			admitted := 0
			for i := 0; i < warmup; i++ {
				if cluster.Publish(0, payload) {
					admitted++
				}
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if cluster.Publish(0, payload) {
					admitted++
				}
			})
			// Allocation counts are exact only without the race detector.
			if allocs != 0 && !race.Enabled {
				t.Fatalf("a Publish that is %s allocates %v times, want 0", verdict, allocs)
			}
			offered := warmup + runs + 1
			st := cluster.Stats()
			if st.Published != uint64(admitted) || st.Throttled != uint64(offered-admitted) {
				t.Fatalf("Stats reports %d published + %d throttled for %d admitted of %d offered",
					st.Published, st.Throttled, admitted, offered)
			}
			if verdict == "refused" && admitted > offered/2 || verdict == "admitted" && admitted != offered {
				t.Fatalf("%d of %d publishes admitted; the %s path is not what was measured", admitted, offered, verdict)
			}
		})
	}
}

// TestPublishConcurrentWithClose hammers the publish path into the
// members: eight goroutines publish against every member while another
// closes the cluster. Every call returns (none waits on a member that
// has stopped), a call that starts after Close reports false, and no
// verdict is lost or crossed between callers: each admitted payload is
// delivered at its origin exactly once, and nothing else is. Run with
// -race -count=10.
func TestPublishConcurrentWithClose(t *testing.T) {
	before := runtime.NumGoroutine()

	const members, publishers = 4, 8
	// Deliveries at the origin, per (origin, payload id). Payload ids are
	// unique across publishers, so a verdict that reached the wrong
	// caller shows up as a count that is not exactly one.
	type key struct {
		origin NodeID
		id     uint64
	}
	var mu sync.Mutex
	atOrigin := make(map[key]int)
	cfg := fastConfig()
	cfg.Period = 2 * time.Millisecond
	cfg.Adaptive = false // every offer is admitted while the group runs
	cluster, err := NewCluster(members, cfg, WithSeed(18), WithDeliver(func(d Delivery) {
		if d.Event.ID.Origin != d.Node {
			return
		}
		mu.Lock()
		atOrigin[key{d.Node, binary.BigEndian.Uint64(d.Event.Payload)}]++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	nodes := cluster.Nodes()

	var closed atomic.Bool
	var inFlight atomic.Uint64 // publishes admitted so far
	admitted := make([][]key, publishers)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each publisher keeps calling well past Close.
			for i, late := uint64(0), 0; late < 16; i++ {
				wasClosed := closed.Load()
				if wasClosed {
					late++
				}
				id := uint64(p)<<48 | i
				origin := i % members
				ok := cluster.Publish(int(origin), binary.BigEndian.AppendUint64(nil, id))
				if ok && wasClosed {
					t.Errorf("publisher %d: Publish admitted an event after Close returned", p)
					return
				}
				if ok {
					admitted[p] = append(admitted[p], key{nodes[origin], id})
					inFlight.Add(1)
				}
			}
		}(p)
	}
	if !waitUntil(10*time.Second, func() bool { return inFlight.Load() >= 64*publishers }) {
		t.Fatal("the publishers never got going")
	}
	if err := cluster.Close(); err != nil {
		t.Error(err)
	}
	closed.Store(true)

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("a Publish never returned:\n%s", buf[:runtime.Stack(buf, true)])
	}

	total := 0
	for _, mine := range admitted {
		total += len(mine)
		for _, k := range mine {
			if n := atOrigin[k]; n != 1 {
				t.Fatalf("admitted payload %x was delivered %d times at its origin %s, want once", k.id, n, k.origin)
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing was admitted before Close; the hand-off was not exercised")
	}
	if len(atOrigin) != total {
		t.Fatalf("%d payloads delivered at their origin, %d reported admitted: a verdict was lost", len(atOrigin), total)
	}
	if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after Close:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}
