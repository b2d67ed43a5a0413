package experiments

import (
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/race"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/workload"
)

// runtimeConfig is a sub-second real-time configuration: 10 nodes,
// 30ms rounds.
func runtimeConfig() Config {
	return Config{
		N:           10,
		Fanout:      3,
		Period:      30 * time.Millisecond,
		MaxAge:      8,
		Buffer:      30,
		OfferedRate: 100, // msg/s aggregate ≈ 3 per round
		PayloadSize: 8,
		Warmup:      300 * time.Millisecond,
		Duration:    900 * time.Millisecond,
		Seed:        5,
	}
}

func TestRunRuntimeBaselineSmoke(t *testing.T) {
	res, err := RunRuntime(runtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Messages < 30 {
		t.Fatalf("only %d messages measured", res.Summary.Messages)
	}
	if res.Summary.MeanReceiversPct < 90 {
		t.Fatalf("mean receivers %.1f%% in healthy runtime run", res.Summary.MeanReceiversPct)
	}
}

func TestRunRuntimeAdaptiveSmoke(t *testing.T) {
	cfg := runtimeConfig()
	cfg.Adaptive = true
	cfg.Core = DefaultExperimentCore(cfg.OfferedRate / float64(cfg.N))
	res, err := RunRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllowedRate <= 0 {
		t.Fatal("allowed rate not sampled")
	}
	if res.Summary.Messages == 0 {
		t.Fatal("no messages admitted")
	}
	if res.MinBuffFinal != cfg.Buffer {
		t.Fatalf("minBuff %d, want %d", res.MinBuffFinal, cfg.Buffer)
	}
}

func TestRunRuntimeInvalidConfig(t *testing.T) {
	cfg := runtimeConfig()
	cfg.N = 0
	if _, err := RunRuntime(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = runtimeConfig()
	cfg.Topology = sim.NewTwoTierTopology(1, sim.LatencyClass{Max: time.Millisecond}, sim.LatencyClass{})
	if _, err := RunRuntime(cfg); err == nil || !strings.Contains(err.Error(), "simulator-only") {
		t.Fatalf("latency injection in real time: err = %v, want a simulator-only error", err)
	}
}

// TestRunRuntimePartialViews: the wall world runs lpbcast partial views
// too — the wire carries their subscriptions — and delivers exactly
// once (RunRuntime refuses a run that does not).
func TestRunRuntimePartialViews(t *testing.T) {
	cfg := runtimeConfig()
	cfg.N = 12
	cfg.ViewSize = 6
	res, err := RunRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Messages < 30 {
		t.Fatalf("only %d messages measured", res.Summary.Messages)
	}
	if res.Summary.MeanReceiversPct < 90 {
		t.Fatalf("mean receivers %.1f%% over partial views", res.Summary.MeanReceiversPct)
	}
}

// pinger sends a message to peer every round and counts what it
// receives.
type pinger struct {
	id, peer gossip.NodeID
	received atomic.Uint64
}

func (p *pinger) ID() gossip.NodeID { return p.id }
func (p *pinger) Tick(time.Time) []gossip.Outgoing {
	return []gossip.Outgoing{{To: p.peer, Msg: &gossip.Message{From: p.id}}}
}
func (p *pinger) Receive(*gossip.Message, time.Time) []gossip.Outgoing {
	p.received.Add(1)
	return nil
}

// TestWallWorldCrashKeepsEndpoint: a member set down receives nothing
// while its endpoint drops what is sent to it (counted as NoHandler),
// and after setDown(i, false) it receives again at the same address.
func TestWallWorldCrashKeepsEndpoint(t *testing.T) {
	cfg := Config{Period: 5 * time.Millisecond, Seed: 1}
	ww, err := newWallWorld(cfg, []gossip.NodeID{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	w := ww.(*wall)
	defer w.close()
	a, b := &pinger{id: "a", peer: "b"}, &pinger{id: "b", peer: "a"}
	for i, m := range []gossip.Machine{a, b} {
		if err := w.start(i, m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("b to receive", func() bool { return b.received.Load() > 0 })

	ep, addr := w.endpoints[1], w.endpoints[1].Addr().String()
	w.setDown(1, true)
	down := b.received.Load()
	dropped := ep.Stats().NoHandler
	waitFor("a's rounds to reach the crashed endpoint", func() bool { return ep.Stats().NoHandler >= dropped+5 })
	if got := b.received.Load(); got != down {
		t.Fatalf("a crashed member received %d messages", got-down)
	}

	w.setDown(1, false)
	waitFor("b to receive after the restart", func() bool { return b.received.Load() > down })
	if w.endpoints[1] != ep || ep.Addr().String() != addr {
		t.Fatalf("restarted at %v, want the endpoint bound at %s", w.endpoints[1].Addr(), addr)
	}
}

func TestRunFigure9RuntimeScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time scenario, ~3s")
	}
	base := Config{
		N:           12,
		Fanout:      3,
		Period:      time.Second, // scaled ÷40 → 25ms
		MaxAge:      8,
		Buffer:      30,
		OfferedRate: 6,
		PayloadSize: 8,
		Seed:        3,
	}
	cfg := Figure9Config{
		Base:            base,
		InitialBuffer:   30,
		ReducedBuffer:   10,
		RecoveredBuffer: 20,
		Fraction:        0.25,
		ChangeAt1:       20 * time.Second,
		ChangeAt2:       40 * time.Second,
		Total:           60 * time.Second,
		IdealFor:        func(buffer int) float64 { return float64(buffer) / 4 },
	}
	res, err := RunFigure9Runtime(cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Points are rescaled back to scenario time.
	last := res.Points[len(res.Points)-1]
	if last.Start < 30*time.Second {
		t.Fatalf("series too short after rescale: last at %v", last.Start)
	}
	var sb strings.Builder
	RenderFigure9(&sb, res)
	if !strings.Contains(sb.String(), "Figure 9") {
		t.Fatal("render missing header")
	}
}

func TestRunRuntimeFailureDetectionSmoke(t *testing.T) {
	cfg := runtimeConfig()
	cfg.PerNodeViews = true
	cfg.FailureDetection = true
	// Generous suspicion window so a goroutine stalled by a loaded CI
	// runner (-race slowdown) is not falsely confirmed at 30ms rounds.
	cfg.FailureSuspicionRounds = 40
	res, err := RunRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure.ProbesSent == 0 {
		t.Fatal("no probes sent over the goroutine runtime")
	}
	// Everyone is up: probing must not bury live members.
	if res.Failure.Confirms != 0 {
		t.Fatalf("%d confirms in a healthy runtime cluster", res.Failure.Confirms)
	}
	if f := res.Failure; 2*f.AcksReceived < f.ProbesSent {
		t.Fatalf("%d acks for %d probes in a healthy cluster, want most probes answered", f.AcksReceived, f.ProbesSent)
	}
	if res.Summary.MeanReceiversPct < 90 {
		t.Fatalf("mean receivers %.1f%% with detector on, healthy cluster", res.Summary.MeanReceiversPct)
	}
}

// TestRunRuntimeChurnSchedules: the real-time run is the same body as
// the simulated one, so it honours crashes, restarts and late joins and
// fills the detector ground truth and view accuracy — all of which
// RunRuntime used to ignore or leave zero. One member crashes and comes
// back, one joins late; afterwards nothing is left running.
func TestRunRuntimeChurnSchedules(t *testing.T) {
	before := goruntime.NumGoroutine()
	cfg := runtimeConfig()
	cfg.Period = 20 * time.Millisecond
	cfg.Warmup = 200 * time.Millisecond
	cfg.Duration = time.Second
	cfg.PerNodeViews = true
	cfg.FailureDetection = true
	cfg.Crashes = []workload.Crash{{At: 250 * time.Millisecond, Nodes: []int{3}}}
	cfg.Restarts = []workload.Restart{{At: 950 * time.Millisecond, Nodes: []int{3}}}
	cfg.Joins = []workload.Join{{At: 400 * time.Millisecond, Nodes: []int{9}}}
	started := time.Now()
	res, err := RunRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(started); took > 2*time.Second && !race.Enabled {
		t.Errorf("run took %v, want under two seconds", took)
	}
	t.Logf("confirms %d (false %d), detection latency %.1f rounds, view accuracy %.1f%%, receivers %.1f%%",
		res.Failure.Confirms, res.FalseConfirms, res.DetectionLatencyRounds, res.ViewAccuracyPct, res.Summary.MeanReceiversPct)
	if res.Failure.Confirms == 0 {
		t.Error("no member confirmed the crashed one: the crash schedule did not run")
	}
	if res.DetectionLatencyRounds <= 0 {
		t.Errorf("DetectionLatencyRounds = %v: confirms were not scored against the crash instant", res.DetectionLatencyRounds)
	}
	if res.ViewAccuracyPct <= 0 || res.ViewAccuracyPct > 100 {
		t.Errorf("ViewAccuracyPct = %v, want in (0, 100]", res.ViewAccuracyPct)
	}
	// 35 rounds of a dead member in nine views must cost some accuracy.
	if res.ViewAccuracyPct == 100 {
		t.Error("ViewAccuracyPct = 100 although a member was down for most of the window")
	}
	if res.Summary.Messages == 0 {
		t.Error("no messages measured")
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after the run:\n%s",
				before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
