// Package runtime drives protocol state machines in real time: a lock
// per gossip.Machine serializes the (single-threaded) state between a
// ticker goroutine, the transport's delivery goroutine and Do. This is
// the "prototype implementation" half of the paper's evaluation — the
// same state machine the simulator drives (sim.Network.Drive), under
// real concurrency, timers and a real wire.
package runtime

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/transport"
)

// Config assembles a Runner.
type Config struct {
	// Node is the protocol state machine the runner owns. The caller
	// must not touch it after Start; use Do for serialized access.
	Node gossip.Machine
	// Transport carries gossip to and from peers. The runner installs
	// one handler on it: the borrowed one on a transport.InboundReceiver,
	// the owning one otherwise.
	Transport transport.Transport
	// Period is the gossip round interval T.
	Period time.Duration
	// PhaseSeed randomizes the initial tick phase in [0, Period) so a
	// cluster started at once does not tick in lockstep. Zero seeds
	// from the node id.
	PhaseSeed uint64
	// Metrics, when non-nil, receives wall-clock tick and receive
	// processing durations (nanoseconds). May be shared across runners.
	Metrics *observe.RunnerMetrics
}

// Stats counts runner activity. What the runner sends is counted by its
// transport.
type Stats struct {
	// InboxDropped counts messages the transport handed over while the
	// runner was not running (before Start or after Stop), discarded
	// and their leases released.
	InboxDropped uint64
}

// Runner drives one Machine. Create with NewRunner, then Start; Stop
// waits for the ticker goroutine to exit.
type Runner struct {
	node    gossip.Machine
	tr      transport.Transport
	period  time.Duration
	phase   time.Duration
	metrics *observe.RunnerMetrics // nil = off

	// mu guards the Machine and everything below it up to the counters:
	// ticks, receives and Do calls each hold it for their whole run.
	mu      sync.Mutex
	running bool          // between Start and Stop
	stopped bool          // Stop has been called; Start is then a no-op
	stop    chan struct{} // closed by Stop to end the ticker goroutine
	done    chan struct{} // closed by the ticker goroutine; nil until Start
	// sender transmits what Tick and Receive return: the round's shared
	// gossip message collapses into one SendMany, so encode-once
	// transports pay the serialization cost once per round, and the
	// grouping scratch is reused across rounds.
	sender transport.GroupSender

	inboxDropped atomic.Uint64
}

// NewRunner wires a runner and installs the transport handler. The
// runner does not tick until Start, and discards (counting
// InboxDropped) what the transport hands it before then.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("runtime: node must not be nil")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: transport must not be nil")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("runtime: period must be positive, got %v", cfg.Period)
	}
	seed := cfg.PhaseSeed
	if seed == 0 {
		for _, b := range []byte(cfg.Node.ID()) {
			seed = seed*131 + uint64(b)
		}
		seed++
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xA5A5A5A5))
	r := &Runner{
		node:    cfg.Node,
		tr:      cfg.Transport,
		period:  cfg.Period,
		phase:   time.Duration(rng.Int64N(int64(cfg.Period))),
		metrics: cfg.Metrics,
		stop:    make(chan struct{}),
	}
	if ir, ok := r.tr.(transport.InboundReceiver); ok {
		ir.SetInboundHandler(func(in *transport.Inbound) {
			r.receive(in.Message())
			in.Release()
		})
	} else {
		r.tr.SetHandler(r.receive)
	}
	return r, nil
}

// Start launches the ticker goroutine. Calling Start twice, or after
// Stop, is a no-op.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running || r.stopped {
		return
	}
	r.running = true
	r.done = make(chan struct{})
	go r.loop(r.done)
}

// Stop ends the runner: once it returns no Tick, Receive or Do runs
// again, and the ticker goroutine has exited. Safe to call multiple
// times and before Start.
func (r *Runner) Stop() {
	r.mu.Lock()
	if r.running {
		close(r.stop)
	}
	r.running, r.stopped = false, true
	done := r.done
	r.mu.Unlock()
	if done != nil {
		<-done
	}
}

// loop ticks the machine. The first round runs at the random phase, as
// in sim.Network.Drive, and one every period after it, so a cluster
// started at once does not tick in lockstep.
func (r *Runner) loop(done chan struct{}) {
	defer close(done)
	phase := time.NewTimer(r.phase)
	defer phase.Stop()
	select {
	case <-r.stop:
		return
	case <-phase.C:
	}
	r.tick()
	ticker := time.NewTicker(r.period)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.tick()
		}
	}
}

func (r *Runner) tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		return
	}
	now := time.Now()
	r.sender.SendGroups(r.tr, r.node.Tick(now))
	if r.metrics != nil {
		r.metrics.TickNanos.ObserveInt(int64(time.Since(now)))
	}
}

// receive processes one inbound message on the transport's delivery
// goroutine and transmits any recovery control traffic (retransmission
// responses) it triggered. When it returns the Machine has copied what
// it keeps, and the transmit is synchronous by the Transport contract,
// so the caller may end the message's lease.
func (r *Runner) receive(msg *gossip.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		r.inboxDropped.Add(1)
		return
	}
	now := time.Now()
	r.sender.SendGroups(r.tr, r.node.Receive(msg, now))
	if r.metrics != nil {
		r.metrics.ReceiveNanos.ObserveInt(int64(time.Since(now)))
	}
}

// Do runs fn under the runner's lock, serialized with ticks and
// receives: the only way to touch the Machine after Start. It reports
// false, without running fn, unless the runner is running. fn must not
// call Do on the same runner.
func (r *Runner) Do(fn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		return false
	}
	fn()
	return true
}

// NodeSnapshot is a point-in-time view of one single-group member's
// protocol state, filled by the member's owner inside Do.
type NodeSnapshot struct {
	AllowedRate float64
	AvgAge      float64
	MinBuff     int
	BufferLen   int
	BufferCap   int
	Gossip      gossip.NodeStats
	Adaptive    core.AdaptiveStats
	Recovery    recovery.Stats
	Failure     failure.Stats
	Health      health.Stats
}

// Stats returns the runner's counters.
func (r *Runner) Stats() Stats {
	return Stats{InboxDropped: r.inboxDropped.Load()}
}
