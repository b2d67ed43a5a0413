package experiments

import (
	"fmt"
	"sync"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/transport"
	"adaptivegossip/internal/workload"
)

// world is the seam between the one experiment body (run) and what the
// paper evaluates the protocol in twice: a simulator and a prototype. It
// is a clock, a fabric and a driver for the members, which run addresses
// by index. There are exactly two: virtual and wall.
//
// after callbacks, and therefore everything run schedules — publishers
// included — execute one at a time inside runUntil.
type world interface {
	now() time.Time
	// elapsed is the time passed since the world was made, read without
	// building a time.Time: the clock the delivery tracker records by.
	elapsed() time.Duration
	// after runs fn d from now.
	after(d time.Duration, fn func())
	// start sets member i running m: a round every Period from a random
	// phase, received messages fed in, what m returns sent.
	start(i int, m gossip.Machine) error
	// do runs fn serialized with member i's rounds and receives, and
	// waits for it: the only way to touch a started member's node.
	do(i int, fn func())
	// setDown crashes member i — it executes nothing and all its traffic
	// is dropped — or brings it back.
	setDown(i int, down bool)
	// publisher makes member i's publish func callable from an after
	// callback. It is not do around every call: the workload offers far
	// more than is admitted, and a closure per offer showed up as a
	// doubling of sim_paper's allocations per delivery.
	publisher(i int, publish workload.PublishFunc) workload.PublishFunc
	// runUntil lets time pass until t, running what falls due.
	runUntil(t time.Time)
	stats() sim.NetworkStats
	// close stops everything still running. Idempotent.
	close()
}

// virtual is the simulator: a discrete-event scheduler for a clock,
// sim.Network for a fabric, Network.Drive under every member. It is
// single-threaded, so do and publisher have nothing to serialize, and
// deterministic per seed.
type virtual struct {
	cfg   Config
	names []gossip.NodeID
	sched *sim.Scheduler
	net   *sim.Network
}

func newVirtualWorld(cfg Config, names []gossip.NodeID) (world, error) {
	sched := sim.NewScheduler(sim.Epoch)
	var opts []sim.NetworkOption
	if cfg.LatencyMax > 0 {
		opts = append(opts, sim.WithLatency(cfg.LatencyMin, cfg.LatencyMax))
	}
	if cfg.Loss > 0 {
		opts = append(opts, sim.WithLoss(cfg.Loss))
	}
	net, err := sim.NewNetwork(sched, sim.NetworkRNG(cfg.Seed), opts...)
	if err != nil {
		return nil, err
	}
	return &virtual{cfg: cfg, names: names, sched: sched, net: net}, nil
}

func (v *virtual) now() time.Time                   { return v.sched.Now() }
func (v *virtual) elapsed() time.Duration           { return v.sched.Elapsed() }
func (v *virtual) after(d time.Duration, fn func()) { v.sched.After(d, fn) }
func (v *virtual) do(_ int, fn func())              { fn() }
func (v *virtual) setDown(i int, down bool)         { v.net.SetDown(v.names[i], down) }
func (v *virtual) runUntil(t time.Time)             { v.sched.RunUntil(t) }
func (v *virtual) stats() sim.NetworkStats          { return v.net.Stats() }
func (v *virtual) close()                           {}

func (v *virtual) start(i int, m gossip.Machine) error {
	phase := time.Duration(sim.PhaseRNG(v.cfg.Seed, i).Float64() * float64(v.cfg.Period))
	v.net.Drive(m, v.cfg.Period, phase)
	return nil
}

func (v *virtual) publisher(_ int, publish workload.PublishFunc) workload.PublishFunc {
	return publish
}

// wall is the prototype: wall-clock timers, one loopback UDP endpoint
// and one runtime.Runner goroutine per member. All Config durations are
// real time here. after callbacks are handed to the goroutine inside
// runUntil, so run's schedule state needs no lock, and that goroutine
// is the only caller of do, setDown and start: a member's runner is
// either the one this goroutine last stored or nil (not started, or
// down), and nil means nothing else touches the node.
type wall struct {
	cfg       Config
	epoch     time.Time
	names     []gossip.NodeID
	net       *transport.UDPNetwork
	machines  []gossip.Machine
	endpoints []*transport.UDPTransport
	runners   []*runtime.Runner
	due       chan func()
	closed    chan struct{}
	closeOnce sync.Once
}

func newWallWorld(cfg Config, names []gossip.NodeID) (world, error) {
	if cfg.LatencyMin > 0 || cfg.LatencyMax > 0 {
		return nil, fmt.Errorf("experiments: LatencyMin/LatencyMax: latency injection is simulator-only; the real-time world runs over loopback UDP")
	}
	return &wall{
		cfg:       cfg,
		epoch:     time.Now(),
		names:     names,
		net:       transport.NewUDPNetwork(transport.UDPNetworkConfig{Seed: uint64(cfg.Seed) + 1, Loss: cfg.Loss}),
		machines:  make([]gossip.Machine, len(names)),
		endpoints: make([]*transport.UDPTransport, len(names)),
		runners:   make([]*runtime.Runner, len(names)),
		due:       make(chan func()),
		closed:    make(chan struct{}),
	}, nil
}

func (w *wall) now() time.Time          { return time.Now() }
func (w *wall) elapsed() time.Duration  { return time.Since(w.epoch) }
func (w *wall) stats() sim.NetworkStats { return sim.NetworkStats{} }

func (w *wall) after(d time.Duration, fn func()) {
	time.AfterFunc(d, func() {
		select {
		case w.due <- fn:
		case <-w.closed:
		}
	})
}

func (w *wall) runUntil(t time.Time) {
	deadline := time.NewTimer(time.Until(t))
	defer deadline.Stop()
	for {
		select {
		case fn := <-w.due:
			fn()
		case <-deadline.C:
			return
		}
	}
}

// start binds member i's endpoint on first use — every endpoint joins
// the mesh, so members started later are reachable at once — and runs
// a fresh runner over it.
func (w *wall) start(i int, m gossip.Machine) error {
	ep := w.endpoints[i]
	if ep == nil {
		var err error
		if ep, err = w.net.Endpoint(w.names[i]); err != nil {
			return err
		}
		if err := ep.Start(); err != nil {
			return err
		}
		w.endpoints[i] = ep
	}
	r, err := runtime.NewRunner(runtime.Config{
		Node:      m,
		Transport: ep,
		Period:    w.cfg.Period,
		PhaseSeed: uint64(w.cfg.Seed)*1_000_003 + uint64(i) + 1,
	})
	if err != nil {
		return err
	}
	w.machines[i], w.runners[i] = m, r
	r.Start()
	return nil
}

func (w *wall) do(i int, fn func()) {
	if r := w.runners[i]; r != nil {
		r.Do(fn)
	} else {
		fn()
	}
}

// setDown crashes a member by detaching its endpoint's handlers (what
// arrives is counted as NoHandler and dropped) and stopping its runner,
// and revives it with a fresh runner over the same machine and
// endpoint, as a restarted process would get. The socket stays bound
// while the member is down, so its address is never handed to anyone
// else.
func (w *wall) setDown(i int, down bool) {
	if !down {
		if err := w.start(i, w.machines[i]); err != nil {
			panic("experiments: restart: " + err.Error()) // the same start succeeded before the crash
		}
		return
	}
	if r := w.runners[i]; r != nil {
		w.endpoints[i].SetHandler(nil)
		w.endpoints[i].SetInboundHandler(nil)
		r.Stop()
		w.runners[i] = nil
	}
}

func (w *wall) publisher(i int, publish workload.PublishFunc) workload.PublishFunc {
	return func(payload []byte) (admitted bool) {
		w.do(i, func() { admitted = publish(payload) })
		return admitted
	}
}

func (w *wall) close() {
	w.closeOnce.Do(func() {
		close(w.closed)
		for i := range w.runners {
			w.setDown(i, true)
		}
		w.net.Close()
	})
}
