// Package workload generates the offered load of the paper's
// experiments: constant-rate or Poisson publishers on whatever clock
// the caller schedules them with (the discrete-event scheduler in
// simulation runs, wall-clock timers in prototype runs), plus the
// buffer-resize and crash/restart/join schedules.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// PublishFunc submits one message and reports whether it was admitted
// (token-bucket gated senders reject above-allowance messages).
type PublishFunc func(payload []byte) bool

// SenderConfig describes one publisher.
type SenderConfig struct {
	// Rate is the offered load in msg/s, finite and non-negative. Zero
	// disables the sender.
	Rate float64
	// PayloadSize is the event payload length in bytes.
	PayloadSize int
	// Poisson selects exponential inter-arrival times; false means
	// strictly periodic emission.
	Poisson bool
}

// Validate reports the first configuration error.
func (c SenderConfig) Validate() error {
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate < 0 {
		return fmt.Errorf("workload: rate must be finite and non-negative, got %v", c.Rate)
	}
	if c.PayloadSize < 0 {
		return fmt.Errorf("workload: payload size must be non-negative, got %d", c.PayloadSize)
	}
	return nil
}

// SenderStats counts offered and admitted messages.
type SenderStats struct {
	Offered  uint64
	Admitted uint64
}

// Sender is one publisher. It has no clock of its own: every emission
// schedules the next through the after func it was started with — a
// sim.Scheduler's After in simulation, a time.AfterFunc wrapper in real
// time — and runs wherever after runs its callbacks. Stop and Stats may
// be called from any goroutine.
type Sender struct {
	cfg     SenderConfig
	after   func(time.Duration, func())
	publish PublishFunc
	rng     *rand.Rand
	payload []byte
	emitFn  func() // s.emit, bound once so re-arming allocates nothing

	stopped  atomic.Bool
	offered  atomic.Uint64
	admitted atomic.Uint64
}

// StartSender schedules a publisher through after. The first emission is
// phase-randomized within one inter-arrival interval so a cluster of
// senders does not emit in lockstep.
func StartSender(after func(time.Duration, func()), cfg SenderConfig, publish PublishFunc, rng *rand.Rand) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if after == nil || publish == nil || rng == nil {
		return nil, fmt.Errorf("workload: after, publish and rng must not be nil")
	}
	s := &Sender{
		cfg:     cfg,
		after:   after,
		publish: publish,
		rng:     rng,
		payload: make([]byte, cfg.PayloadSize),
	}
	s.emitFn = s.emit
	if cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		after(time.Duration(rng.Float64()*float64(interval)), s.emitFn)
	}
	return s, nil
}

// Stop halts future emissions; one already running finishes. Idempotent.
func (s *Sender) Stop() { s.stopped.Store(true) }

// Stats returns the offered/admitted counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{Offered: s.offered.Load(), Admitted: s.admitted.Load()}
}

func (s *Sender) emit() {
	if s.stopped.Load() {
		return
	}
	s.offered.Add(1)
	if s.publish(s.payload) {
		s.admitted.Add(1)
	}
	var next time.Duration
	if s.cfg.Poisson {
		next = time.Duration(s.rng.ExpFloat64() / s.cfg.Rate * float64(time.Second))
	} else {
		next = time.Duration(float64(time.Second) / s.cfg.Rate)
	}
	if next <= 0 {
		next = time.Nanosecond
	}
	s.after(next, s.emitFn)
}

// checkStep is the check every schedule step shares: a non-negative
// offset and node indexes inside the group.
func checkStep(what string, at time.Duration, nodes []int, groupSize int) error {
	if at < 0 {
		return fmt.Errorf("workload: %s offset must be non-negative, got %v", what, at)
	}
	for _, idx := range nodes {
		if idx < 0 || idx >= groupSize {
			return fmt.Errorf("workload: %s node index %d out of range [0,%d)", what, idx, groupSize)
		}
	}
	return nil
}

// Resize is one step of a buffer-resize schedule: at offset At from the
// experiment start, the nodes with the given indexes set their buffer
// capacity to Capacity. This encodes the paper's §4 dynamic scenario
// (20% of nodes shrink 90→45, later grow 45→60).
type Resize struct {
	At       time.Duration
	Nodes    []int
	Capacity int
}

// Validate reports the first schedule error given the group size.
func (r Resize) Validate(groupSize int) error {
	if err := checkStep("resize", r.At, r.Nodes, groupSize); err != nil {
		return err
	}
	if r.Capacity <= 0 {
		return fmt.Errorf("workload: resize capacity must be positive, got %d", r.Capacity)
	}
	return nil
}

// Crash is one step of a failure schedule: at offset At the nodes with
// the given indexes become unreachable (their messages are dropped in
// both directions). Gossip's probabilistic guarantees should degrade
// only marginally — the resilience property the paper's §2 background
// relies on.
type Crash struct {
	At    time.Duration
	Nodes []int
}

// Validate reports the first schedule error given the group size.
func (c Crash) Validate(groupSize int) error {
	return checkStep("crash", c.At, c.Nodes, groupSize)
}

// Restart is one step of a churn schedule: at offset At the nodes with
// the given indexes come back up after a crash — they become reachable
// again, resume ticking and (if publishers) resume offering load. A
// restarted process rejoins with a fresh detector state and a bumped
// incarnation, like a real process restart with a static seed list.
type Restart struct {
	At    time.Duration
	Nodes []int
}

// Validate reports the first schedule error given the group size.
func (r Restart) Validate(groupSize int) error {
	return checkStep("restart", r.At, r.Nodes, groupSize)
}

// ChurnTrace generates a deterministic crash/restart schedule: churn
// events arrive at exponential intervals with the given rate (events
// per second) over [start, start+window); each event crashes one
// currently-up node chosen uniformly at random (node 0 is spared so at
// least one publisher survives every trace) and schedules its restart
// downFor later. The trace is reproducible from the seed.
func ChurnTrace(n int, rate float64, downFor, start, window time.Duration, seed int64) ([]Crash, []Restart) {
	if n < 2 || rate <= 0 || window <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewPCG(uint64(seed)^0xC0FFEE, uint64(seed)+0x51DE))
	// downUntil[i] > t means node i is still down at event time t.
	downUntil := make([]time.Duration, n)
	var crashes []Crash
	var restarts []Restart
	t := start
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= start+window {
			break
		}
		// Pick a currently-up victim other than node 0; give up after a
		// few draws if nearly everyone is already down.
		victim := -1
		for attempt := 0; attempt < 8; attempt++ {
			cand := 1 + rng.IntN(n-1)
			if downUntil[cand] <= t {
				victim = cand
				break
			}
		}
		if victim < 0 {
			continue
		}
		downUntil[victim] = t + downFor
		crashes = append(crashes, Crash{At: t, Nodes: []int{victim}})
		restarts = append(restarts, Restart{At: t + downFor, Nodes: []int{victim}})
	}
	return crashes, restarts
}

// Join is one step of a membership-growth schedule: at offset At the
// nodes with the given indexes enter the group — they become gossip
// targets, start ticking and (if publishers) start offering load. The
// paper's §2.2 names dynamic joins as one reason resources change at
// run time.
type Join struct {
	At    time.Duration
	Nodes []int
}

// Validate reports the first schedule error given the group size.
func (j Join) Validate(groupSize int) error {
	return checkStep("join", j.At, j.Nodes, groupSize)
}

// FirstFraction returns the indexes of the first fraction×n nodes — the
// paper's "20% of the nodes" selection.
func FirstFraction(n int, fraction float64) []int {
	k := int(fraction * float64(n))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
