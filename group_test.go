package adaptivegossip

import (
	"context"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/transport"
)

// Both facades share one lifecycle (group.start / group.close), so its
// contract is checked once, over each facade on a default UDP fabric
// and on one built with non-default TransportOptions.

// facade is what the lifecycle table needs of Node and Cluster.
type facade interface {
	Start(ctx context.Context) error
	Close() error
	Events(ctx context.Context) <-chan Delivery
}

var lifecycleFacades = []struct {
	name  string
	build func(tr *UDPTransport, cfg Config) (facade, error)
}{
	{"Node", func(tr *UDPTransport, cfg Config) (facade, error) {
		return NewNode("solo", cfg, WithTransport(tr))
	}},
	{"Cluster", func(tr *UDPTransport, cfg Config) (facade, error) {
		return NewCluster(3, cfg, WithTransport(tr))
	}},
}

var lifecycleFabrics = []struct {
	name string
	opts []TransportOption
}{
	{"custom", []TransportOption{WithTransportSeed(5), WithLoss(0.2), WithMaxDatagram(512)}},
	{"udp", nil},
}

// waitClosed reports whether the Events stream ends within the timeout.
func waitClosed(events <-chan Delivery, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}

func TestGroupLifecycle(t *testing.T) {
	for _, fc := range lifecycleFacades {
		for _, fb := range lifecycleFabrics {
			build := func(t *testing.T, cfg Config) facade {
				t.Helper()
				tr, err := NewUDPTransport(fb.opts...)
				if err != nil {
					t.Fatal(err)
				}
				g, err := fc.build(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			t.Run(fc.name+"/"+fb.name, func(t *testing.T) {
				t.Run("close leaks no goroutine", func(t *testing.T) {
					before := runtime.NumGoroutine()
					cfg := fastConfig()
					cfg.Observability.DebugAddr = "127.0.0.1:0"
					g := build(t, cfg)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					events := g.Events(ctx)
					if err := g.Start(ctx); err != nil {
						t.Fatal(err)
					}
					time.Sleep(5 * cfg.Period) // let every loop tick and gossip
					if err := g.Close(); err != nil {
						t.Fatal(err)
					}
					if !waitClosed(events, 5*time.Second) {
						t.Fatal("events stream still open after Close")
					}
					// Close waits for the loops; the context and stream
					// watchers and the fabric's readers exit right after.
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > before {
						if time.Now().After(deadline) {
							buf := make([]byte, 1<<16)
							t.Fatalf("%d goroutines before, %d after Close:\n%s",
								before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
						}
						time.Sleep(5 * time.Millisecond)
					}
				})

				t.Run("any start context closes the group", func(t *testing.T) {
					g := build(t, fastConfig())
					defer g.Close()
					events := g.Events(context.Background())
					first, cancelFirst := context.WithCancel(context.Background())
					defer cancelFirst()
					second, cancelSecond := context.WithCancel(context.Background())
					if err := g.Start(first); err != nil {
						t.Fatal(err)
					}
					if err := g.Start(second); err != nil {
						t.Fatal(err)
					}
					cancelSecond()
					if !waitClosed(events, 10*time.Second) {
						t.Fatal("group still open after a Start context was cancelled")
					}
					if err := g.Start(context.Background()); err == nil {
						t.Fatal("Start accepted on a group closed by its context")
					}
				})

				t.Run("close before start and twice", func(t *testing.T) {
					g := build(t, fastConfig())
					for i := 0; i < 2; i++ {
						if err := g.Close(); err != nil {
							t.Fatalf("Close #%d: %v", i+1, err)
						}
					}
					if err := g.Start(context.Background()); err == nil {
						t.Fatal("Start accepted after Close")
					}
				})
			})
		}
	}
}

// TestInboxOverflowIsCounted: a member whose WithDeliver callback
// blocks stops draining its endpoint's receive queue; once more than
// transport.DefaultRecvQueue messages have arrived the overflow is
// dropped, counted, and visible in Stats — and the group still closes.
func TestInboxOverflowIsCounted(t *testing.T) {
	cfg := fastConfig()
	cfg.Period = time.Millisecond
	t.Run("Cluster", func(t *testing.T) {
		fabric, err := NewUDPTransport()
		if err != nil {
			t.Fatal(err)
		}
		const blocked NodeID = "node-00"
		entered := make(chan struct{})
		release := make(chan struct{})
		c, err := NewCluster(2, cfg, WithTransport(fabric), WithDeliver(func(d Delivery) {
			if d.Node == blocked {
				close(entered)
				<-release
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !c.Publish(1, []byte("x")) {
			t.Fatal("publish rejected")
		}
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("event never reached the member that blocks")
		}
		// The blocked member neither ticks nor drains; its one peer keeps
		// sending it a round message every period. The fabric's own counter
		// is readable without taking a member's lock.
		sentAtBlock := fabric.Stats().Sent
		want := sentAtBlock + uint64(transport.DefaultRecvQueue) + 64
		deadline := time.Now().Add(20 * time.Second)
		for fabric.Stats().Sent < want {
			if time.Now().After(deadline) {
				t.Fatalf("fabric moved only %d messages", fabric.Stats().Sent-sentAtBlock)
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(release)
		if got := c.Stats().Wire.RecvQueueDrops; got == 0 {
			t.Fatal("Stats.Wire.RecvQueueDrops = 0 after the receive queue overflowed")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEventStreamShedsWhenSubscriberStalls: an Events subscriber that is
// never read fills its DefaultEventStreamBuffer-deep channel; after that
// the hub drops and counts (Stats and /metrics) instead of blocking the
// member loops, WithDeliver keeps firing, and Close still returns with
// every goroutine gone.
func TestEventStreamShedsWhenSubscriberStalls(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := fastConfig()
	cfg.Period = 2 * time.Millisecond
	cfg.Adaptive = false // every offer is admitted
	cfg.Observability.DebugAddr = "127.0.0.1:0"
	var delivered atomic.Uint64
	cluster, err := NewCluster(3, cfg, WithSeed(27), WithDeliver(func(Delivery) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = cluster.Events(ctx) // subscribed, never read
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// A publisher keeps offering load; a Publish that never returns is a
	// member loop stuck behind the stalled stream, caught by the deadline.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cluster.Publish(i%3, []byte("x"))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	deliverAtLeast := func(n uint64) {
		t.Helper()
		if !waitUntil(20*time.Second, func() bool { return delivered.Load() >= n }) {
			t.Fatalf("only %d of %d deliveries: a member loop is stuck behind the stalled stream", delivered.Load(), n)
		}
	}
	deliverAtLeast(DefaultEventStreamBuffer + 256)
	shed := cluster.Stats().StreamDropped
	if shed == 0 {
		t.Fatalf("Stats.StreamDropped = 0 after %d deliveries to a stalled subscriber", delivered.Load())
	}
	metrics := debugGet(t, "http://"+cluster.DebugAddr()+"/metrics")
	if !regexp.MustCompile(`(?m)^gossip_stream_dropped_total [1-9]`).MatchString(metrics) {
		t.Fatalf("/metrics does not count the shed deliveries:\n%s", metrics)
	}
	// The subscriber is still stalled: deliveries keep flowing and the
	// hub keeps counting what it sheds.
	deliverAtLeast(delivered.Load() + 256)
	if got := cluster.Stats().StreamDropped; got <= shed {
		t.Fatalf("Stats.StreamDropped stayed at %d while the subscriber stalled", got)
	}
	close(stop)
	<-stopped

	closed := make(chan error, 1)
	go func() { closed <- cluster.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a stalled Events subscriber")
	}
	if !waitUntil(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after Close:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}
