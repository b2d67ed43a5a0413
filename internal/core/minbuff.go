package core

import "fmt"

// MinBuffEstimator is the distributed discovery of resource
// availability of paper Figure 5(a).
//
// Time is divided into sample periods of SamplePeriodRounds gossip
// rounds. Within each period the estimator keeps a running minimum of
// the buffer capacities heard in gossip headers (seeded with the local
// capacity). The working estimate is the minimum over the last Window
// periods, which smooths the start-of-period reset while letting a
// departed constrained node's value age out after Window periods.
//
// Periods are loosely synchronized: receiving a header from a later
// period fast-forwards the local period counter, the paper's clock
// synchronization rule.
//
// MinBuffEstimator is not safe for concurrent use.
type MinBuffEstimator struct {
	window   []int // ring indexed by period % len
	period   uint64
	localCap int
	rounds   int // rounds elapsed in the current period
	perLen   int // SamplePeriodRounds
	advances uint64
}

// NewMinBuffEstimator creates an estimator for a node whose local
// buffer capacity is localCap.
func NewMinBuffEstimator(window, samplePeriodRounds, localCap int) (*MinBuffEstimator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: window must be positive, got %d", window)
	}
	if samplePeriodRounds <= 0 {
		return nil, fmt.Errorf("core: sample period must be positive rounds, got %d", samplePeriodRounds)
	}
	if localCap <= 0 {
		return nil, fmt.Errorf("core: local capacity must be positive, got %d", localCap)
	}
	e := &MinBuffEstimator{
		window:   make([]int, window),
		localCap: localCap,
		perLen:   samplePeriodRounds,
	}
	for i := range e.window {
		e.window[i] = localCap
	}
	return e, nil
}

// Period returns the current sample period s.
func (e *MinBuffEstimator) Period() uint64 { return e.period }

// Advances counts period transitions (local and synchronized).
func (e *MinBuffEstimator) Advances() uint64 { return e.advances }

// LocalCapacity returns the capacity this node contributes.
func (e *MinBuffEstimator) LocalCapacity() int { return e.localCap }

// SetLocalCapacity tracks a local buffer resize. A shrink takes effect
// in the current period immediately (the node's own capacity always
// participates in the minimum); growth propagates only as new periods
// start, exactly as in the paper's window scheme.
func (e *MinBuffEstimator) SetLocalCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("core: local capacity must be positive, got %d", capacity)
	}
	e.localCap = capacity
	slot := e.slot(e.period)
	if capacity < e.window[slot] {
		e.window[slot] = capacity
	}
	return nil
}

func (e *MinBuffEstimator) advance() {
	e.period++
	e.advances++
	e.rounds = 0
	e.window[e.slot(e.period)] = e.localCap
}

// slot maps a period to its window index. The modulo is taken on the
// uint64: a received period at or above 2⁶³ converted to int first
// would index the window at a negative slot.
func (e *MinBuffEstimator) slot(period uint64) int {
	return int(period % uint64(len(e.window)))
}

// OnRound accounts one gossip round and reports whether a new sample
// period started.
func (e *MinBuffEstimator) OnRound() bool {
	e.rounds++
	if e.rounds < e.perLen {
		return false
	}
	e.advance()
	return true
}

// Header returns the (s, minBuff) pair to piggyback on outgoing gossip.
func (e *MinBuffEstimator) Header() (period uint64, minBuff int) {
	return e.period, e.window[e.slot(e.period)]
}

// maxPeriod is the last sample period a header may carry. A member
// starts at 0 and counts one period per SamplePeriodRounds rounds, so
// no honest header comes near it; a higher one is forged, and
// following it would let the counter wrap past 2⁶⁴ onto the slot it
// just wrote.
const maxPeriod = 1<<63 - 1

// Observe folds a received header into the local state. Headers from
// later periods fast-forward the period counter (loose clock sync);
// headers within the window update the corresponding period's minimum;
// older headers are ignored, and so are headers from a period above
// maxPeriod.
func (e *MinBuffEstimator) Observe(period uint64, minBuff int) {
	if minBuff <= 0 || period > maxPeriod {
		return // defensive: a corrupt header must not poison the estimate
	}
	w := uint64(len(e.window))
	if period > e.period {
		if period-e.period >= w {
			// Jumped past the whole window: every slot restarts from
			// the local capacity.
			for i := range e.window {
				e.window[i] = e.localCap
			}
			e.advances += period - e.period
			e.period = period
			e.rounds = 0
		} else {
			for e.period < period {
				e.advance()
			}
		}
	} else if e.period-period >= w {
		return // stale beyond the window
	}
	slot := e.slot(period)
	if minBuff < e.window[slot] {
		e.window[slot] = minBuff
	}
}

// Estimate returns the working minBuff: the minimum over the window.
func (e *MinBuffEstimator) Estimate() int {
	min := e.window[0]
	for _, v := range e.window[1:] {
		if v < min {
			min = v
		}
	}
	return min
}
