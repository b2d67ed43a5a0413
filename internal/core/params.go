package core

import (
	"errors"
	"fmt"
)

// Figure 5's constants, reconstructed from paper §3.3–§3.4 (including
// values garbled in the paper's text) and calibrated against the
// regenerated figures. The paper calibrates the critical age ta once,
// for its system, and fixes the others from it; so does this package.
const (
	// criticalAge is the measured critical age ta of our system: the
	// average age of dropped messages at the maximum rate that still
	// delivers to ≥95% of members on average, constant across buffer
	// sizes (5.39±0.03 hops measured by experiments.RunFigure4; the
	// paper reports 5.3 for its configuration).
	criticalAge = 5.4

	// samplePeriodRounds is the sample period Ts = ta·T rounded up, in
	// gossip rounds: the time a minimum takes to reach all members.
	samplePeriodRounds = 6

	// The controller's operating marks sit slightly above the critical
	// age: ta guarantees 95% *mean* coverage, but the atomicity target
	// (each message to >95% of members) needs margin, so the neutral
	// zone [tl, th] straddles ta+0.6. Calibrated to reproduce the
	// paper's ≈87% atomicity at buffer 60.
	targetAge = criticalAge + 0.6 // operating point; avgAge's start
	lowAge    = criticalAge + 0.2 // tl: at or below, congestion cuts the rate
	highAge   = criticalAge + 1.2 // th: at or above, the rate may grow

	decreaseFactor = 0.12 // δdec, the multiplicative cut
	increaseFactor = 0.05 // δinc, the multiplicative growth
	minRate        = 0.01 // msg/s floor, keeps the controller live

	// bucketMax is the Figure 3 bucket's capacity (burst bound). An
	// avgTokens at or above highTokensFrac of it marks the allowance as
	// unused, forcing a decrease (the inflated-allowance guard of
	// §3.3); at or below lowTokensFrac it marks the allowance as fully
	// used, a precondition for increases.
	bucketMax      = 2.5
	highTokensFrac = 0.75
	lowTokensFrac  = 0.5
)

// Defaults of the settable Params.
const (
	DefaultWindow       = 2    // W
	DefaultAlpha        = 0.9  // α, EMA weight on history
	DefaultIncreaseProb = 0.25 // pr
	DefaultMaxRate      = 1000 // msg/s ceiling
	DefaultInitialRate  = 1.0  // msg/s until the controller takes over
)

// Params configure the adaptive mechanism: the values a caller varies.
// Figure 5's marks, factors, sample period, rate floor and bucket are
// the package's constants. Zero values are invalid for most fields;
// start from DefaultParams and override.
type Params struct {
	// Window is W: the number of recent sample periods whose minima are
	// combined into the working estimate.
	Window int
	// Alpha is the weight α of history in the avgAge and avgTokens
	// moving averages.
	Alpha float64
	// IncreaseProb is pr: each round a sender eligible to increase does
	// so with this probability, desynchronizing group-wide surges.
	IncreaseProb float64
	// InitialRate is the sender's allowed rate (msg/s) before the
	// controller has observed anything.
	InitialRate float64
	// MaxRate clamps the allowed rate (msg/s) from above; the floor is
	// 0.01 msg/s.
	MaxRate float64
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
		Window:       DefaultWindow,
		Alpha:        DefaultAlpha,
		IncreaseProb: DefaultIncreaseProb,
		InitialRate:  DefaultInitialRate,
		MaxRate:      DefaultMaxRate,
		MinBuffRank:  1,
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
	if p.Window <= 0 {
		fail("window must be positive, got %d", p.Window)
	}
	if !(p.Alpha >= 0) || !(p.Alpha < 1) {
		fail("alpha must be in [0,1), got %v", p.Alpha)
	}
	if !(p.IncreaseProb > 0) || !(p.IncreaseProb <= 1) {
		fail("increase probability must be in (0,1], got %v", p.IncreaseProb)
	}
	if !(p.InitialRate > 0) {
		fail("initial rate must be positive, got %v", p.InitialRate)
	}
	if !(p.MaxRate >= minRate) {
		fail("max rate %v must be at least min rate %v", p.MaxRate, minRate)
	}
	if p.MinBuffRank < 1 {
		fail("min-buffer rank must be at least 1, got %d", p.MinBuffRank)
	}
	if p.MinBuffFloor < 0 {
		fail("min-buffer floor must be non-negative, got %d", p.MinBuffFloor)
	}
	return errors.Join(errs...)
}
