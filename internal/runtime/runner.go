// Package runtime drives protocol state machines in real time: one
// goroutine per gossip.Machine owns the (single-threaded) state, fed by
// a gossip ticker, the transport's inbox and a command queue. This is
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

// DefaultInboxSize bounds the queue between the transport's delivery
// goroutines and the node loop. Overflow drops messages — acceptable
// for gossip, which tolerates loss by design — and is counted.
const DefaultInboxSize = 256

// Config assembles a Runner.
type Config struct {
	// Node is the protocol state machine the runner owns. The caller
	// must not touch it after Start; use Do for serialized access.
	Node gossip.Machine
	// Transport carries gossip to and from peers. The runner installs
	// its handler — and, on a transport.InboundReceiver, the borrowed
	// one that replaces it.
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

// Stats counts runner activity.
type Stats struct {
	Ticks         uint64
	InboxDropped  uint64
	SendErrors    uint64
	MessagesMoved uint64
}

// Runner drives one Machine. Create with NewRunner, then Start; Stop
// waits for the loop to exit.
type Runner struct {
	node    gossip.Machine
	tr      transport.Transport
	period  time.Duration
	phase   time.Duration
	metrics *observe.RunnerMetrics // nil = off

	inbox chan delivery
	cmds  chan *request
	stop  chan struct{}
	done  chan struct{}

	// sender amortizes the per-round grouping scratch (only the loop
	// goroutine touches it).
	sender transport.GroupSender

	startOnce sync.Once
	stopOnce  sync.Once
	started   atomic.Bool

	ticks        atomic.Uint64
	inboxDropped atomic.Uint64
	sendErrors   atomic.Uint64
	moved        atomic.Uint64
}

// delivery is one inbox entry: a message and, when it arrived on the
// transport's borrowed path, the lease that keeps its memory valid. The
// lease is released once — after Machine.Receive returns, or at once if
// the inbox is full. Entries still queued when the loop stops are never
// released, which only forgoes their reuse.
type delivery struct {
	msg   *gossip.Message
	lease *transport.Inbound
}

func (d delivery) release() {
	if d.lease != nil {
		d.lease.Release()
	}
}

// NewRunner wires a runner and installs the transport handler. The
// runner does not tick until Start.
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
		inbox:   make(chan delivery, DefaultInboxSize),
		cmds:    make(chan *request),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.tr.SetHandler(func(msg *gossip.Message) { r.enqueue(delivery{msg: msg}) })
	if ir, ok := r.tr.(transport.InboundReceiver); ok {
		ir.SetInboundHandler(func(in *transport.Inbound) {
			r.enqueue(delivery{msg: in.Message(), lease: in})
		})
	}
	return r, nil
}

func (r *Runner) enqueue(d delivery) {
	select {
	case r.inbox <- d:
	default:
		r.inboxDropped.Add(1)
		d.release()
	}
}

// Start launches the node loop. Calling Start twice is a no-op.
func (r *Runner) Start() {
	r.startOnce.Do(func() {
		r.started.Store(true)
		go r.loop()
	})
}

// Stop terminates the loop and waits for it to exit. Safe to call
// multiple times and before Start.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
}

func (r *Runner) loop() {
	defer close(r.done)
	// Random initial phase desynchronizes cluster-wide ticks: the first
	// round runs at phase, as in sim.Network.Drive, and one every period
	// after it. Inbox and command traffic is serviced while waiting — it
	// must not cut the phase short, or a cluster started under load
	// ticks in lockstep.
	phase := time.NewTimer(r.phase)
	defer phase.Stop()
waitPhase:
	for {
		select {
		case <-phase.C:
			break waitPhase
		case <-r.stop:
			return
		case msg := <-r.inbox:
			r.receive(msg)
		case req := <-r.cmds:
			req.run()
		}
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
		case d := <-r.inbox:
			r.receive(d)
		case req := <-r.cmds:
			req.run()
		}
	}
}

func (r *Runner) tick() {
	r.ticks.Add(1)
	now := time.Now()
	r.send(r.node.Tick(now))
	if r.metrics != nil {
		r.metrics.TickNanos.ObserveInt(int64(time.Since(now)))
	}
}

// receive processes one inbound message and transmits any recovery
// control traffic (retransmission responses) it triggered, then ends
// the message's lease: the Machine has copied what it keeps, and the
// transmit is synchronous by the Transport contract.
func (r *Runner) receive(d delivery) {
	now := time.Now()
	r.send(r.node.Receive(d.msg, now))
	d.release()
	if r.metrics != nil {
		r.metrics.ReceiveNanos.ObserveInt(int64(time.Since(now)))
	}
}

// send transmits a batch of outgoings through the runner's GroupSender:
// the round's shared gossip message collapses into one SendMany so
// encode-once transports pay the serialization cost once per round.
// The grouping scratch is reused across rounds.
func (r *Runner) send(outs []gossip.Outgoing) {
	sent, failed := r.sender.SendGroups(r.tr, outs)
	r.moved.Add(uint64(sent))
	r.sendErrors.Add(uint64(failed))
}

// Do runs fn inside the node loop, serialized with ticks and receives,
// and waits for it to finish: the only way to touch the Machine after
// Start. It reports false if the runner stopped (or never started)
// before fn could run.
func (r *Runner) Do(fn func()) bool {
	if !r.started.Load() {
		return false
	}
	req := requests.Get().(*request)
	req.fn = fn
	select {
	case r.cmds <- req:
		<-req.done
		req.fn = nil
		requests.Put(req)
		return true
	case <-r.done:
		// Never handed over; dropped rather than recycled, so the pool
		// holds only requests whose completion was received.
		return false
	}
}

// request is one Do call on its way into a loop: the function and the
// channel its caller waits on. Requests are pooled across runners, so a
// steady stream of Do calls allocates nothing. done has capacity 1 and is
// never closed: the loop's completion send cannot block, and the request
// is reusable once the caller has received it.
type request struct {
	fn   func()
	done chan struct{}
}

var requests = sync.Pool{New: func() any { return &request{done: make(chan struct{}, 1)} }}

// run executes the request on the loop goroutine and wakes its caller.
func (req *request) run() {
	req.fn()
	req.done <- struct{}{}
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
	return Stats{
		Ticks:         r.ticks.Load(),
		InboxDropped:  r.inboxDropped.Load(),
		SendErrors:    r.sendErrors.Load(),
		MessagesMoved: r.moved.Load(),
	}
}
