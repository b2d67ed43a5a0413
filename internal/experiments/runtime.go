package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/metrics"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
	"adaptivegossip/internal/workload"
)

// RunRuntime executes the same experiment as Run, but on the real-time
// goroutine runtime over the in-memory transport — the "prototype
// implementation" half of the paper's evaluation. All durations in cfg
// are wall-clock here, so callers scale the paper's 5-second period
// down (e.g. to 50ms) to keep runs short; the protocol depends on
// rounds, not on wall seconds.
func RunRuntime(cfg Config) (RunResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}

	memOpts := []transport.MemOption{transport.WithMemSeed(uint64(cfg.Seed) + 1)}
	if cfg.LatencyMax > 0 {
		memOpts = append(memOpts, transport.WithMemLatency(cfg.LatencyMin, cfg.LatencyMax))
	}
	if cfg.Loss > 0 {
		memOpts = append(memOpts, transport.WithMemLoss(cfg.Loss))
	}
	net, err := transport.NewMemNetwork(memOpts...)
	if err != nil {
		return RunResult{}, err
	}
	defer net.Close()

	names := make([]gossip.NodeID, cfg.N)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	registry := membership.NewRegistry(names...)
	tracker, err := metrics.NewDeliveryTracker(names)
	if err != nil {
		return RunResult{}, err
	}
	epoch := time.Now()
	allowed := metrics.NewGaugeMeter(epoch, cfg.Bucket)

	gp := gossip.Params{
		Fanout:      cfg.Fanout,
		Period:      cfg.Period,
		MaxEvents:   cfg.Buffer,
		MaxEventIDs: cfg.IDCacheMult * cfg.Buffer,
		MaxAge:      cfg.MaxAge,
	}
	nodes := make([]*core.AdaptiveNode, cfg.N)
	runners := make([]*runtime.Runner, cfg.N)
	// inLoop runs fn on node i serialized with its loop; after the
	// runner stopped fn does not run and reads keep their zero value.
	inLoop := func(i int, fn func(n *core.AdaptiveNode)) {
		runners[i].Do(func() { fn(nodes[i]) })
	}
	for i := range runners {
		name := names[i]
		// Like the simulation driver: with PerNodeViews each node owns
		// its membership so detector verdicts evict per-observer;
		// otherwise all nodes share the omniscient registry.
		ownReg := registry
		if cfg.PerNodeViews {
			ownReg = membership.NewRegistry(names...)
		}
		var onMembership failure.OnChangeFunc
		if cfg.FailureDetection && cfg.PerNodeViews {
			onMembership = ownReg.ApplyVerdict
		}
		node, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:           name,
			Gossip:       gp,
			Adaptive:     cfg.Adaptive,
			Core:         cfg.Core,
			Recovery:     cfg.recoveryParams(),
			Failure:      cfg.failureParams(),
			OnMembership: onMembership,
			Peers:        ownReg,
			RNG:          rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(i)+1)),
			Deliver: func(ev gossip.Event) {
				tracker.DeliverHop(ev.ID, name, time.Now(), ev.Age)
			},
			Start: epoch,
		})
		if err != nil {
			return RunResult{}, err
		}
		ep, err := net.Endpoint(name)
		if err != nil {
			return RunResult{}, err
		}
		r, err := runtime.NewRunner(runtime.Config{
			Node:      node,
			Transport: ep,
			Period:    cfg.Period,
			PhaseSeed: uint64(cfg.Seed)*1_000_003 + uint64(i) + 1,
		})
		if err != nil {
			return RunResult{}, err
		}
		nodes[i], runners[i] = node, r
	}
	for _, r := range runners {
		r.Start()
	}
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()

	// Offered load.
	perSender := cfg.OfferedRate / float64(cfg.Senders)
	senders := make([]*workload.TimedSender, 0, cfg.Senders)
	for i := 0; i < cfg.Senders; i++ {
		s, err := workload.StartTimedSender(workload.SenderConfig{
			Rate:        perSender,
			PayloadSize: cfg.PayloadSize,
			Poisson:     cfg.Poisson,
		}, func(payload []byte) bool {
			admitted := false
			inLoop(i, func(n *core.AdaptiveNode) {
				ev, ok := n.Publish(payload, time.Now())
				if ok {
					tracker.Broadcast(ev.ID, time.Now())
					admitted = true
				}
			})
			return admitted
		}, uint64(cfg.Seed)*7_777_777+uint64(i)+1)
		if err != nil {
			return RunResult{}, err
		}
		senders = append(senders, s)
	}
	defer func() {
		for _, s := range senders {
			s.Stop()
		}
	}()

	stopAux := make(chan struct{})
	var aux sync.WaitGroup

	// Allowed-rate sampler.
	if cfg.Adaptive {
		aux.Add(1)
		go func() {
			defer aux.Done()
			ticker := time.NewTicker(cfg.Bucket)
			defer ticker.Stop()
			for {
				select {
				case <-stopAux:
					return
				case <-ticker.C:
					now := time.Now()
					for i := 0; i < cfg.Senders; i++ {
						inLoop(i, func(n *core.AdaptiveNode) { allowed.Observe(now, n.AllowedRate()) })
					}
				}
			}
		}()
	}

	// Resize schedule.
	if len(cfg.Resizes) > 0 {
		resizes := append([]workload.Resize(nil), cfg.Resizes...)
		sort.Slice(resizes, func(i, j int) bool { return resizes[i].At < resizes[j].At })
		aux.Add(1)
		go func() {
			defer aux.Done()
			for _, r := range resizes {
				wait := time.Until(epoch.Add(r.At))
				if wait > 0 {
					select {
					case <-stopAux:
						return
					case <-time.After(wait):
					}
				}
				for _, idx := range r.Nodes {
					// cfg.Validate already rejected capacities the node would refuse.
					inLoop(idx, func(n *core.AdaptiveNode) { _ = n.SetBufferCapacity(r.Capacity) })
				}
			}
		}()
	}

	captureDropped := func() (ageSum, dropped uint64) {
		for i := range runners {
			inLoop(i, func(n *core.AdaptiveNode) {
				st := n.GossipStats()
				ageSum += st.DroppedAgeSum
				dropped += st.DroppedCapacity
			})
		}
		return
	}

	time.Sleep(cfg.Warmup)
	from := time.Now()
	startAgeSum, startDropped := captureDropped()
	time.Sleep(cfg.Duration)
	to := time.Now()
	endAgeSum, endDropped := captureDropped()
	time.Sleep(cfg.Drain)

	close(stopAux)
	aux.Wait()
	for _, s := range senders {
		s.Stop()
	}

	res := RunResult{
		Config:      cfg,
		OfferedRate: cfg.OfferedRate,
		Summary:     tracker.Results(from, to, metrics.DefaultAtomicityThreshold),
	}
	secs := to.Sub(from).Seconds()
	res.InputRate = float64(res.Summary.Messages) / secs
	res.OutputRate = res.InputRate * res.Summary.MeanReceiversPct / 100
	res.AtomicRate = res.InputRate * res.Summary.AtomicityPct / 100
	if d := endDropped - startDropped; d > 0 {
		res.AvgDroppedAge = float64(endAgeSum-startAgeSum) / float64(d)
		res.DroppedEvents = d
	}
	end := time.Now()
	if cfg.Adaptive {
		if mean, ok := allowed.MeanWindow(from, to); ok {
			res.AllowedRate = mean * float64(cfg.Senders)
		}
		res.AllowedSeries = scaleGauge(allowed.Series(epoch, end), float64(cfg.Senders))
	}
	for i := range runners {
		inLoop(i, func(n *core.AdaptiveNode) {
			if mb := n.MinBuffEstimate(); cfg.Adaptive && (i == 0 || mb < res.MinBuffFinal) {
				res.MinBuffFinal = mb
			}
			if cfg.Recovery {
				res.Recovery.Add(n.RecoveryStats())
			}
			if cfg.FailureDetection {
				res.Failure.Add(n.FailureStats())
			}
		})
	}
	res.AtomicitySeries = tracker.Series(epoch, end, cfg.Bucket, metrics.DefaultAtomicityThreshold)
	res.Latency = tracker.LatencySnapshot()
	res.Hops = tracker.HopsSnapshot()
	return res, nil
}

// RunFigure9Runtime replays the dynamic-buffer scenario on the
// goroutine runtime with all durations divided by scale and all rates
// multiplied by it, preserving the round structure (e.g. scale=100
// turns the 450s/5s-period run into 4.5s/50ms).
func RunFigure9Runtime(cfg Figure9Config, scale float64) (Figure9Result, error) {
	if scale <= 0 {
		scale = 1
	}
	shrink := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / scale)
	}
	scaled := cfg
	scaled.Base.Period = shrink(cfg.Base.Period)
	scaled.Base.Bucket = shrink(orDuration(cfg.Base.Bucket, cfg.Base.Period))
	scaled.Base.OfferedRate = cfg.Base.OfferedRate * scale
	scaled.ChangeAt1 = shrink(cfg.ChangeAt1)
	scaled.ChangeAt2 = shrink(cfg.ChangeAt2)
	scaled.Total = shrink(cfg.Total)

	adCfg := scaled.runConfig(true)
	adCfg.Core = DefaultExperimentCore(adCfg.OfferedRate / float64(orAll(adCfg.Senders, adCfg.N)))
	ad, err := RunRuntime(adCfg)
	if err != nil {
		return Figure9Result{}, fmt.Errorf("figure 9 runtime adaptive: %w", err)
	}
	lp, err := RunRuntime(scaled.runConfig(false))
	if err != nil {
		return Figure9Result{}, fmt.Errorf("figure 9 runtime lpbcast: %w", err)
	}
	// Rescale the result back to paper time for rendering: rates ÷
	// scale, durations × scale.
	res := assembleFigure9(scaled, ad, lp)
	res.Config = cfg
	for i := range res.Points {
		res.Points[i].Start = time.Duration(float64(res.Points[i].Start) * scale)
		res.Points[i].AllowedRate /= scale
		if cfg.IdealFor != nil {
			res.Points[i].IdealRate = cfg.IdealFor(cfg.bufferAt(res.Points[i].Start))
		} else {
			res.Points[i].IdealRate = 0
		}
	}
	res.Bucket = time.Duration(float64(res.Bucket) * scale)
	return res, nil
}

func orDuration(d, fallback time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return fallback
}
