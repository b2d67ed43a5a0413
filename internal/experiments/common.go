// Package experiments regenerates every figure of the paper's
// evaluation (§2 and §4) plus this repository's own studies (the
// ablations and the anti-entropy loss sweep). Each RunFigureN function
// sweeps the same parameter axes as the paper and returns rows/series
// shaped like the published plots; Render methods print them as
// aligned text tables. cmd/gossipsim is the command-line front end.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/metrics"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/workload"
)

// Config describes one experiment run. Run executes it in the simulator
// and RunRuntime in real time; both honour every field but
// LatencyMin/LatencyMax, which RunRuntime rejects.
type Config struct {
	// N is the group size (paper: 60).
	N int
	// Fanout is F (paper: 4).
	Fanout int
	// Period is the gossip period T (paper: 5s; virtual time, so the
	// value does not affect wall-clock cost).
	Period time.Duration
	// MaxAge is the purge bound k.
	MaxAge int
	// Buffer is |events|max at every node.
	Buffer int
	// IDCacheMult sizes |eventIds|max as a multiple of Buffer.
	IDCacheMult int
	// Senders is the number of publishing nodes (the first Senders
	// node indexes). Zero means all nodes publish.
	Senders int
	// OfferedRate is the aggregate offered load in msg/s, split evenly
	// across senders.
	OfferedRate float64
	// Poisson selects exponential instead of periodic inter-arrivals.
	Poisson bool
	// PayloadSize is the event payload size in bytes.
	PayloadSize int
	// Adaptive enables the paper's mechanism; false runs the lpbcast
	// baseline.
	Adaptive bool
	// Core parametrizes the adaptation (ignored for the baseline).
	// The zero value means DefaultExperimentCore().
	Core core.Params
	// Warmup is excluded from measurements at the start.
	Warmup time.Duration
	// Duration is the measured window length.
	Duration time.Duration
	// Drain extends the run past the measured window so messages born
	// late can finish disseminating. Zero means MaxAge×Period.
	Drain time.Duration
	// Seed drives all randomness.
	Seed int64
	// LatencyMin/LatencyMax bound network delay (uniform). Simulator
	// only.
	LatencyMin time.Duration
	LatencyMax time.Duration
	// Loss is the iid message loss probability.
	Loss float64
	// Recovery enables the digest-based anti-entropy pull-repair
	// subsystem (internal/recovery) at every node.
	Recovery bool
	// RecoveryDigestLen overrides the digest length (0 = default).
	RecoveryDigestLen int
	// RecoveryBudget overrides the per-round request budget (0 =
	// default).
	RecoveryBudget int
	// Resizes is the buffer-resize schedule (offsets relative to run
	// start, i.e. before the warmup window ends or after — caller's
	// choice).
	Resizes []workload.Resize
	// Crashes is the failure schedule: listed nodes become unreachable
	// at the given offsets. Crashed nodes still count in the delivery
	// denominator; size assertions accordingly.
	Crashes []workload.Crash
	// Joins is the membership-growth schedule: listed nodes stay idle
	// and unknown until their join offset. Like crashed nodes, late
	// joiners count in the delivery denominator from the start.
	Joins []workload.Join
	// Restarts is the rejoin schedule: listed crashed nodes come back
	// up at the given offsets. A restarted node resumes ticking and
	// publishing with a fresh detector state, as a real process restart
	// would.
	Restarts []workload.Restart
	// PerNodeViews gives every node its own membership registry and
	// disables the omniscient registry maintenance on crash: dead
	// members linger in each node's view, wasting fanout, until a
	// failure detector (if enabled) evicts them — the realistic regime
	// the churn experiment measures. Without it (the default) a single
	// shared registry is magically updated at crash instants, as in the
	// paper's experiments.
	PerNodeViews bool
	// FailureDetection enables the SWIM-style failure detector
	// (internal/failure) at every node. With PerNodeViews, confirmed
	// members are evicted from the observer's own registry and members
	// that prove alive again are re-admitted.
	FailureDetection bool
	// FailureSuspicionRounds overrides the suspect→confirm timeout in
	// rounds (0 = subsystem default).
	FailureSuspicionRounds int
	// FailureIndirectProbes overrides k, the indirect probe count (0 =
	// subsystem default).
	FailureIndirectProbes int
	// Bucket is the series granularity. Zero means Period.
	Bucket time.Duration
}

// DefaultConfig is the paper's experimental setting (§4): 60 processes,
// fanout 4, 5-second gossip period, every node publishing.
func DefaultConfig() Config {
	return Config{
		N:           60,
		Fanout:      4,
		Period:      5 * time.Second,
		MaxAge:      10,
		Buffer:      120,
		IDCacheMult: gossip.DefaultIDCacheMult,
		Senders:     0, // all
		OfferedRate: 30,
		PayloadSize: 16,
		Warmup:      150 * time.Second,
		Duration:    450 * time.Second,
		Seed:        1,
	}
}

// DefaultExperimentCore adapts core.DefaultParams to a per-sender share
// of the offered load.
func DefaultExperimentCore(offeredShare float64) core.Params {
	p := core.DefaultParams()
	p.InitialRate = offeredShare
	p.MaxRate = 2 * offeredShare // headroom: "offered load is accepted" without pinning
	return p
}

func (c Config) withDefaults() Config {
	if c.Senders <= 0 || c.Senders > c.N {
		c.Senders = c.N
	}
	if c.IDCacheMult <= 0 {
		c.IDCacheMult = gossip.DefaultIDCacheMult
	}
	if c.Drain == 0 {
		c.Drain = time.Duration(c.MaxAge) * c.Period
	}
	if c.Bucket <= 0 {
		c.Bucket = c.Period
	}
	if c.Adaptive && c.Core == (core.Params{}) {
		c.Core = DefaultExperimentCore(c.OfferedRate / float64(c.Senders))
	}
	return c
}

// recoveryParams maps the experiment knobs onto the subsystem's config.
func (c Config) recoveryParams() recovery.Params {
	return recovery.Params{
		Enabled:       c.Recovery,
		DigestLen:     c.RecoveryDigestLen,
		RequestBudget: c.RecoveryBudget,
	}
}

// failureParams maps the experiment knobs onto the detector's config.
func (c Config) failureParams() failure.Params {
	return failure.Params{
		Enabled:                c.FailureDetection,
		SuspicionTimeoutRounds: c.FailureSuspicionRounds,
		IndirectProbes:         c.FailureIndirectProbes,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("experiments: need at least 2 nodes, got %d", c.N)
	}
	if c.OfferedRate < 0 {
		return fmt.Errorf("experiments: offered rate must be non-negative, got %v", c.OfferedRate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("experiments: duration must be positive, got %v", c.Duration)
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("experiments: warmup/drain must be non-negative")
	}
	for _, r := range c.Resizes {
		if err := r.Validate(c.N); err != nil {
			return err
		}
	}
	for _, cr := range c.Crashes {
		if err := cr.Validate(c.N); err != nil {
			return err
		}
	}
	for _, j := range c.Joins {
		if err := j.Validate(c.N); err != nil {
			return err
		}
	}
	for _, r := range c.Restarts {
		if err := r.Validate(c.N); err != nil {
			return err
		}
	}
	return nil
}

// RunResult aggregates one run's measurements over the window
// [Warmup, Warmup+Duration).
type RunResult struct {
	Config Config
	// Summary holds delivery coverage and atomicity (threshold 95%).
	Summary metrics.Summary
	// InputRate is the admitted broadcast rate in msg/s (aggregate).
	InputRate float64
	// OutputRate is the average per-receiver goodput in msg/s:
	// InputRate × mean coverage. This is the paper's Figure 7(b)
	// "output rate (input-loss)" reading.
	OutputRate float64
	// AtomicRate is the rate of messages reaching >95% of members.
	AtomicRate float64
	// AvgDroppedAge is the mean age of capacity-dropped events across
	// all nodes within the window — the §2.3 congestion signal.
	AvgDroppedAge float64
	// DroppedEvents counts capacity drops in the window.
	DroppedEvents uint64
	// AllowedRate is the aggregate allowed sending rate (adaptive runs;
	// 0 for the baseline).
	AllowedRate float64
	// OfferedRate echoes the aggregate offered load.
	OfferedRate float64
	// AllowedSeries is the aggregate allowed rate per bucket over the
	// whole run (adaptive only).
	AllowedSeries []metrics.GaugePoint
	// AtomicitySeries is the per-bucket atomicity over the whole run.
	AtomicitySeries []metrics.BucketStat
	// MinBuffFinal is the minimum over nodes of the final minBuff
	// estimate (adaptive only) — convergence diagnostic.
	MinBuffFinal int
	// Recovery aggregates the anti-entropy counters across all nodes
	// (zero when the subsystem is disabled).
	Recovery metrics.RecoverySummary
	// Failure aggregates the failure-detector counters across all nodes
	// (zero when the subsystem is disabled).
	Failure metrics.FailureSummary
	// ViewAccuracyPct is the mean over samples and live nodes of the
	// fraction of each node's view that points at live members
	// (PerNodeViews runs only; 0 otherwise).
	ViewAccuracyPct float64
	// DetectionLatencyRounds is the mean per-observer latency from a
	// crash instant to the observer's confirm, in gossip rounds
	// (FailureDetection runs with crashes only).
	DetectionLatencyRounds float64
	// FalseConfirms counts confirms of nodes that were actually up —
	// ground-truth false positives (FailureDetection runs only).
	FalseConfirms uint64
	// Network counts fabric traffic by kind (simulation runs only).
	Network sim.NetworkStats
	// Latency is the pooled birth→delivery latency distribution in
	// microseconds over every delivery of the whole run (warmup and
	// drain included) — the p50/p95/p99 the figure tables report.
	Latency observe.HistogramSnapshot
	// Hops is the pooled hop-count (event age at delivery) distribution
	// over the same deliveries.
	Hops observe.HistogramSnapshot
	// DuplicateDeliveries counts repeated (event, member) deliveries over
	// the whole run: 0 is exactly once, and RunSeeds refuses any other.
	DuplicateDeliveries uint64
}

// Run executes one simulated experiment: virtual time, the simulated
// fabric, deterministic per seed.
func Run(cfg Config) (RunResult, error) { return run(cfg, newVirtualWorld) }

// truth is what detector verdicts are scored against: which members are
// really down, and since when. Verdicts arrive on member loops, crashes
// and restarts on the schedule's; in the wall world those are different
// goroutines, hence the lock.
type truth struct {
	mu            sync.Mutex
	downSince     map[gossip.NodeID]time.Time
	latencySum    time.Duration // crash → confirm, over confirms of down members
	latencyN      int
	falseConfirms uint64 // confirms of members that were up
}

func (t *truth) setDown(id gossip.NodeID, down bool, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if down {
		t.downSince[id] = now
	} else {
		delete(t.downSince, id)
	}
}

func (t *truth) down(id gossip.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, down := t.downSince[id]
	return down
}

func (t *truth) confirmed(id gossip.NodeID, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if since, down := t.downSince[id]; down {
		t.latencySum += now.Sub(since)
		t.latencyN++
	} else {
		t.falseConfirms++
	}
}

// sampled is an adaptive sender under observation: after every round
// its allowed rate goes into the run's gauge (the Figure 9(a) series).
type sampled struct {
	*core.AdaptiveNode
	allowed *metrics.GaugeMeter
}

// Tick returns AdaptiveNode.Tick's messages, valid until the next Tick
// or Receive.
func (s sampled) Tick(now time.Time) []gossip.Outgoing {
	outs := s.AdaptiveNode.Tick(now)
	s.allowed.Observe(now, s.AllowedRate())
	return outs
}

// run is the one experiment body. Everything that differs between a
// simulated and a real-time run — the clock, the fabric, what drives a
// member — is behind w; names, views, nodes, load, schedules, samplers,
// window edges and the result are assembled here, once.
func run(cfg Config, newWorld func(Config, []gossip.NodeID) (world, error)) (RunResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}

	names := make([]gossip.NodeID, cfg.N)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	w, err := newWorld(cfg, names)
	if err != nil {
		return RunResult{}, err
	}
	defer w.close()
	// The run's epoch is the instant the world was made: the delivery
	// tracker records times as offsets from it, w.elapsed().
	epoch := w.now().Add(-w.elapsed())

	// Late joiners stay out of the membership (and idle) until their
	// scheduled join instant.
	late := make([]bool, cfg.N)
	for _, j := range cfg.Joins {
		for _, idx := range j.Nodes {
			late[idx] = true
		}
	}
	seedMembers := func(r *membership.Registry) {
		for i, name := range names {
			if !late[i] {
				r.Add(name)
			}
		}
	}
	// Membership: one omniscient shared registry (the paper's model),
	// or one registry per node so views degrade realistically under
	// churn and failure detection has something to repair.
	var registry *membership.Registry
	regs := make([]*membership.Registry, cfg.N)
	if cfg.PerNodeViews {
		for i := range regs {
			regs[i] = membership.NewRegistry()
			seedMembers(regs[i])
		}
	} else {
		registry = membership.NewRegistry()
		seedMembers(registry)
		for i := range regs {
			regs[i] = registry
		}
	}
	tracker, err := metrics.NewDeliveryTracker(names, epoch)
	if err != nil {
		return RunResult{}, err
	}
	allowed := metrics.NewGaugeMeter(epoch, cfg.Bucket)
	truth := &truth{downSince: make(map[gossip.NodeID]time.Time, cfg.N)}

	nodes := make([]*core.AdaptiveNode, cfg.N)
	for i := range nodes {
		name := names[i]
		ownReg := regs[i]
		// Detector verdicts: with per-node views the observer maintains
		// its own registry; either way, confirms are scored against the
		// ground truth for latency and false positives.
		var onMembership failure.OnChangeFunc
		if cfg.FailureDetection {
			onMembership = func(id gossip.NodeID, status gossip.MemberStatus) {
				if status == gossip.MemberConfirmed {
					truth.confirmed(id, w.now())
				}
				if cfg.PerNodeViews {
					ownReg.ApplyVerdict(id, status)
				}
			}
		}
		nodes[i], err = core.NewAdaptiveNode(core.NodeConfig{
			ID: name,
			Gossip: gossip.Params{
				Fanout:      cfg.Fanout,
				Period:      cfg.Period,
				MaxEvents:   cfg.Buffer,
				MaxEventIDs: cfg.IDCacheMult * cfg.Buffer,
				MaxAge:      cfg.MaxAge,
			},
			Adaptive:     cfg.Adaptive,
			Core:         cfg.Core,
			Recovery:     cfg.recoveryParams(),
			Failure:      cfg.failureParams(),
			OnMembership: onMembership,
			Peers:        ownReg,
			RNG:          sim.NodeRNG(cfg.Seed, i),
			Deliver: func(ev gossip.Event) {
				tracker.DeliverHop(ev.ID, i, w.elapsed(), ev.Age)
			},
			Start: epoch,
		})
		if err != nil {
			return RunResult{}, err
		}
	}

	// Offered load: senders are indexed by node.
	senders := make([]*workload.Sender, cfg.Senders)
	startSender := func(i int) error {
		node := nodes[i]
		publish := func(payload []byte) bool {
			at := w.elapsed()
			ev, ok := node.Publish(payload, epoch.Add(at))
			if ok {
				tracker.Broadcast(ev.ID, at)
			}
			return ok
		}
		sender, err := workload.StartSender(w.after, workload.SenderConfig{
			Rate:        cfg.OfferedRate / float64(cfg.Senders),
			PayloadSize: cfg.PayloadSize,
			Poisson:     cfg.Poisson,
		}, w.publisher(i, publish), sim.WorkloadRNG(cfg.Seed, i))
		senders[i] = sender
		return err
	}
	// startMember sets member i gossiping — a round every Period from a
	// random phase, so the group does not tick in lockstep — and, if it
	// is a sender and has no publisher yet, offering load.
	startMember := func(i int) error {
		var m gossip.Machine = nodes[i]
		if cfg.Adaptive && i < cfg.Senders {
			m = sampled{nodes[i], allowed}
		}
		if err := w.start(i, m); err != nil {
			return err
		}
		if i < cfg.Senders && senders[i] == nil {
			return startSender(i)
		}
		return nil
	}
	for i := range nodes {
		if !late[i] {
			if err := startMember(i); err != nil {
				return RunResult{}, err
			}
		}
	}
	// Past set-up a start can only fail the way it would have failed
	// there (same periods, same sender config), so schedule steps panic.
	must := func(what string, err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", what, err))
		}
	}

	// Join schedule: at the join instant a node enters every view (one
	// shared registry aliases them all), starts ticking and starts
	// offering load.
	for _, j := range cfg.Joins {
		w.after(j.At, func() {
			for _, idx := range j.Nodes {
				for _, r := range regs {
					r.Add(names[idx])
				}
				must("join", startMember(idx))
			}
		})
	}

	// Buffer-resize schedule.
	for _, r := range cfg.Resizes {
		w.after(r.At, func() {
			for _, idx := range r.Nodes {
				w.do(idx, func() { must("resize", nodes[idx].SetBufferCapacity(r.Capacity)) })
			}
		})
	}

	// Failure schedule: crashed nodes stop executing, drop all traffic
	// and stop publishing. In shared-registry mode the registry is
	// omnisciently updated (the paper's model); with PerNodeViews the
	// dead member lingers in every view until a detector evicts it.
	for _, cr := range cfg.Crashes {
		w.after(cr.At, func() {
			for _, idx := range cr.Nodes {
				w.setDown(idx, true)
				truth.setDown(names[idx], true, w.now())
				if !cfg.PerNodeViews {
					registry.Remove(names[idx])
				}
				if idx < cfg.Senders && senders[idx] != nil {
					senders[idx].Stop()
				}
			}
		})
	}

	// Restart schedule: a crashed node comes back as a fresh process —
	// detector state reset with a bumped incarnation, its own view
	// re-seeded from the static member list, reachable again, and its
	// publisher resumed.
	for _, rs := range cfg.Restarts {
		w.after(rs.At, func() {
			for _, idx := range rs.Nodes {
				if !truth.down(names[idx]) {
					continue
				}
				nodes[idx].FailureRejoin() // nothing drives a down member: no do needed
				if cfg.PerNodeViews {
					seedMembers(regs[idx])
				} else {
					registry.Add(names[idx])
				}
				w.setDown(idx, false)
				truth.setDown(names[idx], false, w.now())
				if idx < cfg.Senders {
					must("restart", startSender(idx))
				}
			}
		})
	}

	// The measurement window.
	from := epoch.Add(cfg.Warmup)
	to := from.Add(cfg.Duration)

	// View accuracy: with per-node views, sample each live node's
	// registry once per bucket inside the window and score the fraction
	// of non-self entries that point at live members.
	var accSum float64
	var accN int
	if cfg.PerNodeViews {
		var sampleAcc func()
		sampleAcc = func() {
			for i, r := range regs {
				if truth.down(names[i]) {
					continue
				}
				live, total := 0, 0
				for _, id := range r.IDs() {
					if id == names[i] {
						continue
					}
					total++
					if !truth.down(id) {
						live++
					}
				}
				if total > 0 {
					accSum += float64(live) / float64(total)
					accN++
				}
			}
			if w.now().Add(cfg.Bucket).Before(to) {
				w.after(cfg.Bucket, sampleAcc)
			}
		}
		w.after(cfg.Warmup, sampleAcc)
	}

	// Capture dropped-age counters at the window edges so the measured
	// average covers exactly the measurement window.
	captureDropped := func(ageSum, dropped *uint64) func() {
		return func() {
			for i, n := range nodes {
				w.do(i, func() {
					st := n.GossipStats()
					*ageSum += st.DroppedAgeSum
					*dropped += st.DroppedCapacity
				})
			}
		}
	}
	var startAgeSum, startDropped, endAgeSum, endDropped uint64
	w.after(cfg.Warmup, captureDropped(&startAgeSum, &startDropped))
	w.after(cfg.Warmup+cfg.Duration, captureDropped(&endAgeSum, &endDropped))

	end := to.Add(cfg.Drain)
	w.runUntil(end)
	// Nothing runs past this point — the scheduler has stopped, or every
	// member loop has — so the nodes can be read directly.
	w.close()

	res := RunResult{
		Config:      cfg,
		OfferedRate: cfg.OfferedRate,
		Summary:     tracker.Results(from, to, metrics.DefaultAtomicityThreshold),
	}
	secs := cfg.Duration.Seconds()
	res.InputRate = float64(res.Summary.Messages) / secs
	res.OutputRate = res.InputRate * res.Summary.MeanReceiversPct / 100
	res.AtomicRate = res.InputRate * res.Summary.AtomicityPct / 100
	if d := endDropped - startDropped; d > 0 {
		res.AvgDroppedAge = float64(endAgeSum-startAgeSum) / float64(d)
		res.DroppedEvents = d
	}
	if cfg.Adaptive {
		if mean, ok := allowed.MeanWindow(from, to); ok {
			res.AllowedRate = mean * float64(cfg.Senders)
		}
		res.AllowedSeries = scaleGauge(allowed.Series(epoch, end), float64(cfg.Senders))
		res.MinBuffFinal = nodes[0].MinBuffEstimate()
		for _, n := range nodes[1:] {
			if mb := n.MinBuffEstimate(); mb < res.MinBuffFinal {
				res.MinBuffFinal = mb
			}
		}
	}
	if cfg.Recovery {
		for _, n := range nodes {
			res.Recovery.Add(n.RecoveryStats())
		}
	}
	if cfg.FailureDetection {
		for _, n := range nodes {
			res.Failure.Add(n.FailureStats())
		}
		if truth.latencyN > 0 {
			res.DetectionLatencyRounds = truth.latencySum.Seconds() / float64(truth.latencyN) / cfg.Period.Seconds()
		}
		res.FalseConfirms = truth.falseConfirms
	}
	if accN > 0 {
		res.ViewAccuracyPct = 100 * accSum / float64(accN)
	}
	res.Network = w.stats()
	res.AtomicitySeries = tracker.Series(epoch, end, cfg.Bucket, metrics.DefaultAtomicityThreshold)
	res.Latency = tracker.LatencySnapshot()
	res.Hops = tracker.HopsSnapshot()
	res.DuplicateDeliveries = tracker.Duplicates()
	return res, nil
}

func scaleGauge(points []metrics.GaugePoint, factor float64) []metrics.GaugePoint {
	out := make([]metrics.GaugePoint, len(points))
	for i, p := range points {
		p.Mean *= factor
		out[i] = p
	}
	return out
}

// RunSeeds runs cfg with consecutive seeds and averages the scalar
// results. Series come from the first seed; the recovery and network
// counter blocks are pooled (summed) across seeds, so ratios derived
// from them are pooled estimates. The averaged Messages count rounds to
// nearest.
//
// Seed replications are independent (each run owns its scheduler,
// network and RNGs, all derived from its seed), so they execute on the
// package worker pool; results are folded in seed order afterwards,
// keeping the output identical to a sequential sweep.
func RunSeeds(cfg Config, seeds int) (RunResult, error) {
	if seeds <= 0 {
		seeds = 1
	}
	results := make([]RunResult, seeds)
	err := forEach(seeds, func(s int) error {
		c := cfg
		c.Seed = cfg.Seed + int64(s)
		res, err := Run(c)
		if err != nil {
			return err
		}
		if res.DuplicateDeliveries > 0 {
			return fmt.Errorf("experiments: seed %d: %d events delivered twice to one member", c.Seed, res.DuplicateDeliveries)
		}
		results[s] = res
		return nil
	})
	if err != nil {
		return RunResult{}, err
	}
	agg := results[0]
	for _, res := range results[1:] {
		agg.Summary.MeanReceiversPct += res.Summary.MeanReceiversPct
		agg.Summary.AtomicityPct += res.Summary.AtomicityPct
		agg.Summary.Messages += res.Summary.Messages
		agg.InputRate += res.InputRate
		agg.OutputRate += res.OutputRate
		agg.AtomicRate += res.AtomicRate
		agg.AvgDroppedAge += res.AvgDroppedAge
		agg.AllowedRate += res.AllowedRate
		agg.Recovery.Merge(res.Recovery)
		agg.Failure.Merge(res.Failure)
		agg.ViewAccuracyPct += res.ViewAccuracyPct
		agg.DetectionLatencyRounds += res.DetectionLatencyRounds
		agg.FalseConfirms += res.FalseConfirms
		agg.Network.Merge(res.Network)
		agg.Latency.Merge(res.Latency)
		agg.Hops.Merge(res.Hops)
	}
	k := float64(seeds)
	agg.Summary.Messages = (agg.Summary.Messages + seeds/2) / seeds
	agg.Summary.MeanReceiversPct /= k
	agg.Summary.AtomicityPct /= k
	agg.InputRate /= k
	agg.OutputRate /= k
	agg.AtomicRate /= k
	agg.AvgDroppedAge /= k
	agg.AllowedRate /= k
	agg.ViewAccuracyPct /= k
	agg.DetectionLatencyRounds /= k
	return agg, nil
}
