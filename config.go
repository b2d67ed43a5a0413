package adaptivegossip

import (
	"fmt"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/experiments"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/transport"
)

// Re-exported protocol types. The aliases keep a single definition in
// internal/gossip while making the types nameable by API consumers.
type (
	// NodeID identifies a group member.
	NodeID = gossip.NodeID
	// Event is a broadcast message with its gossip age.
	Event = gossip.Event
	// EventID uniquely identifies a broadcast event.
	EventID = gossip.EventID
	// AdaptationConfig holds the adaptive mechanism's settable
	// parameters (paper Figure 5): the estimator's window W and κ-th
	// smallest buffer with its floor, the averages' weight α, the
	// increase probability, the initial and maximum rates, and the
	// token-check ablation. Figure 5's age marks, rate factors, sample
	// period, rate floor and token bucket are fixed from the critical
	// age, as the paper fixes them. See the field docs in
	// internal/core.Params.
	AdaptationConfig = core.Params
	// SimConfig configures a simulated or real-time experiment run.
	SimConfig = experiments.Config
	// SimResult is an experiment run's measurements.
	SimResult = experiments.RunResult
	// MemberStatus is a failure detector's opinion of a group member
	// (alive, suspect or confirmed crashed).
	MemberStatus = gossip.MemberStatus
)

// Re-exported member statuses.
const (
	MemberAlive     = gossip.MemberAlive
	MemberSuspect   = gossip.MemberSuspect
	MemberConfirmed = gossip.MemberConfirmed
)

// DefaultPeriod is the gossip round interval applied when Config.Period
// is zero — suited to in-process clusters; set 5s for paper-faithful
// deployments.
const DefaultPeriod = 250 * time.Millisecond

// RecoveryConfig configures the anti-entropy subsystem
// (internal/recovery): with Enabled set, every gossip round piggybacks
// a digest of per-origin (origin, highest sequence number received)
// watermarks and receivers pull the events they lack under them —
// repairing losses that pure push gossip cannot. Orthogonal to
// Adaptive and Failure.
type RecoveryConfig struct {
	// Enabled turns the subsystem on.
	Enabled bool
}

// FailureConfig groups the SWIM-style failure detector's knobs
// (internal/failure): with Enabled set, each gossip round the node
// pings one random view member, escalates unanswered probes through
// indirect ping-reqs to a suspect→confirm state machine, and
// piggybacks the resulting alive/suspect/confirm rumors on gossip.
// Confirmed members are evicted from the node's membership so fanout
// stops being wasted on the dead. Orthogonal to Adaptive and Recovery.
type FailureConfig struct {
	// Enabled turns the detector on.
	Enabled bool
	// SuspicionTimeout is how many rounds a suspect may refute before
	// being confirmed crashed. Zero derives it from wall time: enough
	// rounds to span 2.5 s, and never fewer than the subsystem's default
	// of 5 (which is what a period of 500 ms or more gets).
	SuspicionTimeout int
}

// suspicionTime is the refutation window a zero SuspicionTimeout stands
// for. The subsystem's 5 rounds are 25 s at the paper's 5 s period but
// 100 ms at 20 ms, shorter than a scheduler stall on a busy host, and a
// loopback-UDP group confirmed live members within seconds with it.
// 2.5 s is what the gossipbench workload with every extension on (50
// rounds of 50 ms) runs with and never falsely confirms.
const suspicionTime = 2500 * time.Millisecond

// params maps the facade knobs onto the detector's configuration for a
// group gossiping every period (positive).
func (c FailureConfig) params(period time.Duration) failure.Params {
	timeout := c.SuspicionTimeout
	if timeout == 0 {
		timeout = max(failure.DefaultSuspicionTimeoutRounds, int((suspicionTime+period-1)/period))
	}
	return failure.Params{Enabled: c.Enabled, SuspicionTimeoutRounds: timeout}
}

// ObservabilityConfig groups the protocol observability layer's knobs:
// an opt-in debug HTTP listener (expvar-style JSON on /debug/vars,
// Prometheus text on /metrics, pprof on /debug/pprof/, rumor traces on
// /debug/gossip/traces) and a sampling rumor-lifecycle tracer. The
// zero value keeps everything off; the alloc-free hot-path histograms
// are always collected (they are part of the protocol loop and cost a
// few atomic adds per round).
type ObservabilityConfig struct {
	// DebugAddr, when non-empty, binds the debug HTTP listener there
	// (e.g. "127.0.0.1:6060"; ":0" picks a free port, see
	// Node.DebugAddr for the bound address). Empty disables the
	// listener.
	DebugAddr string
	// TraceSampleRate is the fraction of rumors whose lifecycle
	// (publish → first-send → receive → deliver/drop) is traced, in
	// [0, 1]. Sampling is deterministic per event ID, so every member
	// of a group traces the same rumors. Zero disables tracing.
	TraceSampleRate float64
	// HealthDigests enables gossip-disseminated health digests: each
	// member periodically folds its counters and delivery-hop histogram
	// into a compact summary piggybacked on outgoing gossip, so every
	// member converges to a cluster-wide health view, served at
	// /debug/gossip/cluster on the debug listener.
	HealthDigests bool
}

// Validate reports the first configuration error.
func (c ObservabilityConfig) Validate() error {
	if !(c.TraceSampleRate >= 0 && c.TraceSampleRate <= 1) {
		return fmt.Errorf("adaptivegossip: trace sample rate %v out of [0,1]", c.TraceSampleRate)
	}
	return nil
}

// Config configures a broadcast node or cluster. Knobs
// are grouped per mechanism: the base protocol's parameters live at the
// top level; each subsystem (Adaptation, Recovery, Failure) owns a
// nested sub-config.
//
// The zero Config is usable: zero-valued protocol fields are normalized
// to the paper's calibrated defaults at construction, and every
// subsystem defaults to off. DefaultConfig additionally enables the
// adaptation mechanism.
type Config struct {
	// Fanout is the number of gossip targets per round (paper: 4).
	// Zero means the default.
	Fanout int
	// Period is the gossip round interval (paper: 5s). Zero means
	// DefaultPeriod.
	Period time.Duration
	// BufferCapacity bounds the events buffer (|events|max). Zero
	// means the default.
	BufferCapacity int
	// IDCacheCapacity bounds the memory of the duplicate-suppression
	// set, its per-origin replay windows, at most 2²⁶. Zero derives it
	// from BufferCapacity. It is not the exactly-once horizon, which
	// comes from MaxAge: it caps the windows at one per unit (the least
	// recently active origin is forgotten past that) and an origin's
	// window at IDCacheCapacity seqs (rounded up to a power of two of
	// 64), past which the oldest are refused as stale.
	IDCacheCapacity int
	// MaxAge is the age purge bound k, at most 65,536. Zero means the
	// default.
	MaxAge int
	// Adaptive enables the paper's adaptation mechanism. Disabled, the
	// node is plain lpbcast with no input bound.
	Adaptive bool
	// Adaptation parametrizes the mechanism. The zero value means
	// DefaultConfig's calibrated defaults.
	Adaptation AdaptationConfig
	// Recovery configures the digest-based anti-entropy subsystem.
	Recovery RecoveryConfig
	// Failure configures the SWIM-style failure detector.
	Failure FailureConfig
	// Observability configures the debug listener and rumor tracing.
	Observability ObservabilityConfig
	// Transport configures wire-level behavior applied to the group's
	// message fabric (built-in or provided via WithTransport).
	Transport TransportConfig
}

// TransportConfig groups the wire-level knobs Config pushes into the
// group's transport fabric.
type TransportConfig struct {
	// Compression names the payload compression applied to the event
	// section of every encoded message: "" or "none" for uncompressed
	// frames, "flate" for DEFLATE. Decoding always accepts compressed
	// frames regardless of this setting.
	Compression string
}

// Validate reports the first configuration error.
func (c TransportConfig) Validate() error {
	if _, err := transport.CompressorByName(c.Compression); err != nil {
		return fmt.Errorf("adaptivegossip: Config.Transport: %w", err)
	}
	return nil
}

// DefaultConfig returns the paper's protocol configuration with a
// DefaultPeriod round interval and adaptation enabled.
func DefaultConfig() Config {
	return Config{
		Fanout:         gossip.DefaultFanout,
		Period:         DefaultPeriod,
		BufferCapacity: gossip.DefaultMaxEvents,
		MaxAge:         gossip.DefaultMaxAge,
		Adaptive:       true,
		Adaptation:     core.DefaultParams(),
	}
}

// withDefaults normalizes the configuration: every zero-valued protocol
// field takes its calibrated default. Explicit normalization (rather
// than comparing against the zero Config) keeps partially-filled
// configs predictable and survives Config gaining non-comparable
// fields.
func (c Config) withDefaults() Config {
	if c.Fanout == 0 {
		c.Fanout = gossip.DefaultFanout
	}
	if c.Period == 0 {
		c.Period = DefaultPeriod
	}
	if c.BufferCapacity == 0 {
		c.BufferCapacity = gossip.DefaultMaxEvents
	}
	if c.MaxAge == 0 {
		c.MaxAge = gossip.DefaultMaxAge
	}
	if c.Adaptation == (AdaptationConfig{}) {
		c.Adaptation = core.DefaultParams()
	}
	return c
}

func (c Config) gossipParams() gossip.Params {
	return gossip.Params{
		Fanout:      c.Fanout,
		Period:      c.Period,
		MaxEvents:   c.BufferCapacity,
		MaxEventIDs: c.IDCacheCapacity,
		MaxAge:      c.MaxAge,
	}
}

// Validate reports the first configuration error. Zero-valued fields
// are normalized to their defaults before checking, so only explicitly
// invalid values (negative bounds, out-of-range parameters) fail.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.gossipParams().Validate(); err != nil {
		return fmt.Errorf("adaptivegossip: %w", err)
	}
	if c.Adaptive {
		if err := c.Adaptation.Validate(); err != nil {
			return fmt.Errorf("adaptivegossip: %w", err)
		}
	}
	if c.Failure.Enabled {
		if err := c.Failure.params(c.Period).Validate(); err != nil {
			return fmt.Errorf("adaptivegossip: %w", err)
		}
	}
	if err := c.Observability.Validate(); err != nil {
		return err
	}
	if err := c.Transport.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultSimConfig returns the paper's experimental configuration
// (60 nodes, fanout 4, 5-second rounds, 30 msg/s aggregate offered
// load).
func DefaultSimConfig() SimConfig {
	return experiments.DefaultConfig()
}

// Simulate runs one deterministic discrete-event experiment — the
// harness behind the paper's simulation results. Virtual time makes
// even 10-minute scenarios complete in well under a second.
func Simulate(cfg SimConfig) (SimResult, error) {
	return experiments.Run(cfg)
}

// SimulateRealtime runs the same experiment on the goroutine runtime
// over loopback UDP — the paper's prototype-validation mode. Durations
// are wall-clock; scale them down accordingly. It is the same
// experiment body as Simulate on a different clock and fabric, so it
// honours the Crashes, Restarts and Joins schedules, partial views
// (ViewSize) and Loss (injected on send), and fills every result field
// but Network, which counts the simulated fabric. A Topology is
// rejected: latency injection is simulator-only. (Before 1.0, SimConfig
// traded LatencyMin/LatencyMax for Topology: uniform latency is a
// one-region topology.)
func SimulateRealtime(cfg SimConfig) (SimResult, error) {
	return experiments.RunRuntime(cfg)
}
