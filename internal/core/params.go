package core

import (
	"errors"
	"fmt"
)

// Default adaptation parameters, reconstructed from paper §3.3–§3.4
// (including values garbled in the paper's text) and calibrated against
// the regenerated figures.
const (
	// DefaultCriticalAge is the measured critical age ta of our system:
	// the average age of dropped messages at the maximum rate that still
	// delivers to ≥95% of members on average, constant across buffer
	// sizes (5.39±0.03 hops measured by experiments.RunFigure4; the
	// paper reports 5.3 for its configuration).
	DefaultCriticalAge = 5.4

	DefaultSamplePeriodRounds = 6   // Ts = ta·T rounded up, in rounds
	DefaultWindow             = 2   // W
	DefaultAlpha              = 0.9 // α, EMA weight on history

	// The controller's operating marks sit slightly above the critical
	// age: ta guarantees 95% *mean* coverage, but the atomicity target
	// (each message to >95% of members) needs margin, so the neutral
	// zone [tl, th] straddles ta+0.6. Calibrated to reproduce the
	// paper's ≈87% atomicity at buffer 60.
	DefaultTargetAge = 6.0 // operating point
	DefaultLowAge    = 5.6 // tl
	DefaultHighAge   = 6.6 // th

	DefaultDecreaseFactor = 0.12 // δdec
	DefaultIncreaseFactor = 0.05 // δinc
	DefaultIncreaseProb   = 0.25 // pr
	DefaultTokenBucketMax = 2.5
	DefaultHighTokensFrac = 0.75
	DefaultLowTokensFrac  = 0.5
	DefaultMinRate        = 0.01 // msg/s floor, keeps the controller live
	DefaultMaxRate        = 1000 // msg/s ceiling
	DefaultInitialRate    = 1.0  // msg/s until the controller takes over
)

// Params configure the adaptive mechanism. Zero values are invalid for
// most fields; start from DefaultParams and override.
type Params struct {
	// SamplePeriodRounds is the sample period Ts expressed in gossip
	// rounds. The paper sets Ts to the time a minimum takes to reach
	// all members (ta gossip periods, §3.4).
	SamplePeriodRounds int
	// Window is W: the number of recent sample periods whose minima are
	// combined into the working estimate.
	Window int
	// Alpha is the weight α of history in the avgAge and avgTokens
	// moving averages.
	Alpha float64
	// TargetAge is the critical age ta: the average dropped-message age
	// observed at the maximum reliable rate (paper §2.3). Calibrate
	// with experiments.CriticalAge for a new configuration.
	TargetAge float64
	// LowAge is the low-age mark tl: avgAge at or below it signals
	// congestion and decreases the rate.
	LowAge float64
	// HighAge is the high-age mark th: avgAge at or above it allows a
	// rate increase.
	HighAge float64
	// DecreaseFactor is δdec, the multiplicative rate cut on congestion.
	DecreaseFactor float64
	// IncreaseFactor is δinc, the multiplicative rate growth when
	// resources free up.
	IncreaseFactor float64
	// IncreaseProb is pr: each round a sender eligible to increase does
	// so with this probability, desynchronizing group-wide surges.
	IncreaseProb float64
	// InitialRate is the sender's allowed rate (msg/s) before the
	// controller has observed anything.
	InitialRate float64
	// MinRate and MaxRate clamp the allowed rate (msg/s).
	MinRate float64
	MaxRate float64
	// TokenBucketMax is the bucket capacity (burst bound) of Figure 3.
	TokenBucketMax float64
	// HighTokensFrac: avgTokens at or above this fraction of the bucket
	// capacity marks the allowance as unused, forcing a decrease (the
	// inflated-allowance guard of §3.3).
	HighTokensFrac float64
	// LowTokensFrac: avgTokens at or below this fraction marks the
	// allowance as fully used, a precondition for increases.
	LowTokensFrac float64
	// DisableTokenCheck removes the avgTokens conditions (ablation A2).
	DisableTokenCheck bool
	// MinBuffRank is κ: adapt to the κ-th smallest buffer instead of
	// the smallest (paper §6, concluding remarks). 1 is the paper's
	// base mechanism.
	MinBuffRank int
	// MinBuffFloor clamps the estimate from below so a single
	// pathological node cannot stall the whole group (paper §6). 0
	// disables the floor.
	MinBuffFloor int
}

// DefaultParams returns the configuration reconstructed from paper
// §3.4.
func DefaultParams() Params {
	return Params{
		SamplePeriodRounds: DefaultSamplePeriodRounds,
		Window:             DefaultWindow,
		Alpha:              DefaultAlpha,
		TargetAge:          DefaultTargetAge,
		LowAge:             DefaultLowAge,
		HighAge:            DefaultHighAge,
		DecreaseFactor:     DefaultDecreaseFactor,
		IncreaseFactor:     DefaultIncreaseFactor,
		IncreaseProb:       DefaultIncreaseProb,
		InitialRate:        DefaultInitialRate,
		MinRate:            DefaultMinRate,
		MaxRate:            DefaultMaxRate,
		TokenBucketMax:     DefaultTokenBucketMax,
		HighTokensFrac:     DefaultHighTokensFrac,
		LowTokensFrac:      DefaultLowTokensFrac,
		MinBuffRank:        1,
	}
}

// Validate reports all configuration errors. An error, and the boxing
// of its arguments, is built only for a failing check, so a valid
// Params allocates nothing. The float checks negate each comparison so
// that NaN fails them.
func (p Params) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if p.SamplePeriodRounds <= 0 {
		fail("sample period must be positive rounds, got %d", p.SamplePeriodRounds)
	}
	if p.Window <= 0 {
		fail("window must be positive, got %d", p.Window)
	}
	if !(p.Alpha >= 0) || !(p.Alpha < 1) {
		fail("alpha must be in [0,1), got %v", p.Alpha)
	}
	if !(p.TargetAge > 0) {
		fail("target age must be positive, got %v", p.TargetAge)
	}
	if !(p.LowAge > 0) || !(p.LowAge <= p.TargetAge) {
		fail("low-age mark %v must be in (0, target %v]", p.LowAge, p.TargetAge)
	}
	if !(p.HighAge >= p.TargetAge) {
		fail("high-age mark %v must be at least target %v", p.HighAge, p.TargetAge)
	}
	if !(p.HighAge > p.LowAge) {
		fail("high-age mark %v must exceed low-age mark %v", p.HighAge, p.LowAge)
	}
	if !(p.DecreaseFactor > 0) || !(p.DecreaseFactor < 1) {
		fail("decrease factor must be in (0,1), got %v", p.DecreaseFactor)
	}
	if !(p.IncreaseFactor > 0) {
		fail("increase factor must be positive, got %v", p.IncreaseFactor)
	}
	if !(p.IncreaseProb > 0) || !(p.IncreaseProb <= 1) {
		fail("increase probability must be in (0,1], got %v", p.IncreaseProb)
	}
	if !(p.InitialRate > 0) {
		fail("initial rate must be positive, got %v", p.InitialRate)
	}
	if !(p.MinRate > 0) {
		fail("min rate must be positive, got %v", p.MinRate)
	}
	if !(p.MaxRate >= p.MinRate) {
		fail("max rate %v must be at least min rate %v", p.MaxRate, p.MinRate)
	}
	if !(p.TokenBucketMax >= 1) {
		fail("token bucket max must be at least 1, got %v", p.TokenBucketMax)
	}
	if !(p.HighTokensFrac > 0) || !(p.HighTokensFrac <= 1) {
		fail("high tokens fraction must be in (0,1], got %v", p.HighTokensFrac)
	}
	if !(p.LowTokensFrac >= 0) || !(p.LowTokensFrac <= p.HighTokensFrac) {
		fail("low tokens fraction %v must be in [0, high %v]", p.LowTokensFrac, p.HighTokensFrac)
	}
	if p.MinBuffRank < 1 {
		fail("min-buffer rank must be at least 1, got %d", p.MinBuffRank)
	}
	if p.MinBuffFloor < 0 {
		fail("min-buffer floor must be non-negative, got %d", p.MinBuffFloor)
	}
	return errors.Join(errs...)
}
