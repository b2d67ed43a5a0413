package core

import (
	"fmt"
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/gossip"
)

// Adjustment describes a rate decision of Figure 5(c).
type Adjustment int

const (
	// AdjustNone: thresholds not crossed; rate unchanged.
	AdjustNone Adjustment = iota
	// AdjustDecreaseAge: avgAge at or below the low-age mark — the
	// group is congested.
	AdjustDecreaseAge
	// AdjustDecreaseUnused: the allowance is going unused (high
	// avgTokens); it shrinks toward actual usage so it cannot inflate.
	AdjustDecreaseUnused
	// AdjustIncrease: resources are free (high avgAge, fully used
	// allowance) and the randomized coin allowed an increase.
	AdjustIncrease
	// AdjustIncreaseSkipped: increase conditions held but the
	// randomization deferred it to a later round.
	AdjustIncreaseSkipped
)

// String names the adjustment.
func (a Adjustment) String() string {
	switch a {
	case AdjustNone:
		return "none"
	case AdjustDecreaseAge:
		return "decrease(age)"
	case AdjustDecreaseUnused:
		return "decrease(unused)"
	case AdjustIncrease:
		return "increase"
	case AdjustIncreaseSkipped:
		return "increase(skipped)"
	default:
		return fmt.Sprintf("Adjustment(%d)", int(a))
	}
}

// RateStats counts rate decisions.
type RateStats struct {
	DecreasesAge    uint64
	DecreasesUnused uint64
	Increases       uint64
	IncreasesSkip   uint64
}

// Message aliases gossip.Message for hook signatures.
type Message = gossip.Message

// Adaptor is one member's adaptation loop, paper Figure 5, with the
// Figure 3 token bucket it steers:
//
//   - (a) min estimates the group's smallest buffer from the gossip
//     headers OnTick stamps and OnReceive folds in.
//   - (b) avgAge is a moving average of the age of the events a buffer
//     of that size would have dropped, fed by OnReceive and OnEvicted.
//   - (c) Adjust, once a round, compares avgAge with the age marks and
//     avgTokens, the bucket's average level, with the usage marks, and
//     cuts or raises rate, the one allowed rate at which the bucket
//     refills. Admit takes a token per broadcast.
//
// The gauges of the loop are its fields. AdaptiveNode calls Admit to
// admit a broadcast, Adjust before each substrate round and EndRound
// after it; the substrate calls the gossip.Extension hooks.
//
// Adaptor is not safe for concurrent use.
type Adaptor struct {
	p   Params
	rng *rand.Rand
	min *MinBuffEstimator

	// Figure 5(b). lost holds the events already counted into avgAge
	// that are still in the real buffer, so each counts at most once.
	avgAge        float64
	lost          map[gossip.EventID]struct{}
	samples       uint64 // events that have fed avgAge
	samplesAtTick uint64 // samples as of the last EndRound

	// Figure 5(c) and the Figure 3 bucket: the allowed rate, the tokens
	// the bucket held at its last fill, and avgTokens, the bucket's level
	// averaged once a round.
	rate      float64
	tokens    float64
	last      time.Time
	avgTokens float64
	stats     RateStats

	// overflow is reused scratch for the Figure 5(b) scan, which runs on
	// every receive while the buffer exceeds the minBuff estimate. Empty
	// between receives, so it pins no payload of a departed event.
	overflow []gossip.Event
}

// NewAdaptor builds the loop of member id, whose local buffer holds
// localCap events: its bucket starts full at start, its rate at
// params.InitialRate, its avgAge at the operating point, and rng draws
// its randomized increases.
func NewAdaptor(id gossip.NodeID, params Params, localCap int, rng *rand.Rand, start time.Time) (*Adaptor, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid params: %w", err)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: rng must not be nil")
	}
	est, err := NewMinBuffEstimator(id, params.MinBuffRank, params.MinBuffFloor, params.Window, localCap)
	if err != nil {
		return nil, err
	}
	return &Adaptor{
		p:      params,
		rng:    rng,
		min:    est,
		avgAge: targetAge, // neutral until real samples arrive
		lost:   make(map[gossip.EventID]struct{}),
		rate:   clamp(params.InitialRate, minRate, params.MaxRate),
		tokens: bucketMax,
		last:   start,
	}, nil
}

// Admit takes a token for a broadcast at now and reports whether the
// bucket had one (Figure 3).
func (a *Adaptor) Admit(now time.Time) bool {
	a.fill(now)
	if a.tokens < 1 {
		return false
	}
	a.tokens--
	return true
}

// fill credits the bucket with what the allowed rate refilled since the
// last fill, up to bucketMax; a clock that steps back credits
// nothing. The paper restores one token every 1000/rate milliseconds;
// accruing rate tokens per second continuously is the fluid limit of
// that rule, with no quantization when the rate changes midway through
// a refill interval.
func (a *Adaptor) fill(now time.Time) {
	dt := now.Sub(a.last)
	if dt <= 0 {
		return
	}
	a.last = now
	a.tokens = min(a.tokens+a.rate*dt.Seconds(), bucketMax)
}

// Adjust runs the rate step of Figure 5(c) at now, before the
// substrate round: it fills the bucket at the rate of the round that
// ends, folds the bucket's level into avgTokens and decides.
func (a *Adaptor) Adjust(now time.Time) Adjustment {
	a.fill(now)
	a.avgTokens = a.ema(a.avgTokens, a.tokens)
	return a.decide()
}

// decide applies the decision rule to avgAge and avgTokens, changing
// rate multiplicatively within [minRate, MaxRate].
func (a *Adaptor) decide() Adjustment {
	p := &a.p
	// Decrease takes precedence: congestion or an unused allowance must
	// never be masked by a simultaneous increase condition.
	if a.avgAge <= lowAge {
		a.rate = clamp(a.rate*(1-decreaseFactor), minRate, p.MaxRate)
		a.stats.DecreasesAge++
		return AdjustDecreaseAge
	}
	if !p.DisableTokenCheck && a.avgTokens >= highTokensFrac*bucketMax {
		a.rate = clamp(a.rate*(1-decreaseFactor), minRate, p.MaxRate)
		a.stats.DecreasesUnused++
		return AdjustDecreaseUnused
	}
	if a.avgAge >= highAge && (p.DisableTokenCheck || a.avgTokens <= lowTokensFrac*bucketMax) {
		if a.rng.Float64() >= p.IncreaseProb {
			a.stats.IncreasesSkip++
			return AdjustIncreaseSkipped
		}
		a.rate = clamp(a.rate*(1+increaseFactor), minRate, p.MaxRate)
		a.stats.Increases++
		return AdjustIncrease
	}
	return AdjustNone
}

// EndRound runs after the substrate round: a round that fed avgAge no
// sample drifts it one step toward maxAge, so an idle group does not
// stay throttled forever.
func (a *Adaptor) EndRound(maxAge int) {
	if a.samples == a.samplesAtTick {
		a.avgAge = a.ema(a.avgAge, float64(maxAge))
	}
	a.samplesAtTick = a.samples
}

// ema is one step of the moving average of avgAge and avgTokens.
func (a *Adaptor) ema(avg, x float64) float64 {
	return a.p.Alpha*avg + (1-a.p.Alpha)*x
}

// OnTick advances the sample-period clock and stamps the adaptation
// header (Figure 5(a), "add information to gossip message"): the
// period's κ smallest entries, each naming its owner, one at the
// paper's κ = 1. out is the node's reused round message, encoded or
// cloned before the next tick refreshes the header.
func (a *Adaptor) OnTick(n *gossip.Node, out *Message) {
	a.min.OnRound()
	out.SamplePeriod, out.MinBuff = a.min.Header()
}

// OnReceive folds the incoming header into the minBuff estimate and
// counts into avgAge the oldest uncounted events beyond the estimate in
// the post-receive buffer (Figure 5(a) "compute new known minimum" +
// Figure 5(b)).
func (a *Adaptor) OnReceive(n *gossip.Node, in *Message) {
	a.min.Observe(in.SamplePeriod, in.MinBuff)
	if overflow := n.BufferLen() - len(a.lost) - a.min.Estimate(); overflow > 0 {
		a.overflow = n.AppendOldestUncounted(a.overflow[:0], overflow, a.counted)
		a.countOverflow(a.overflow)
		clear(a.overflow)
	}
}

// counted reports whether the event already fed avgAge; it is the
// predicate handed to Buffer.AppendOldestUncounted.
func (a *Adaptor) counted(id gossip.EventID) bool {
	_, ok := a.lost[id]
	return ok
}

// countOverflow feeds the events that overflow the virtual
// minBuff-sized buffer into avgAge and marks them counted.
func (a *Adaptor) countOverflow(events []gossip.Event) {
	for _, ev := range events {
		a.sample(ev)
		a.lost[ev.ID] = struct{}{}
	}
}

// sample feeds one dropped event's age into avgAge.
func (a *Adaptor) sample(ev gossip.Event) {
	a.avgAge = a.ema(a.avgAge, float64(ev.Age))
	a.samples++
}

// OnEvicted keeps avgAge and the lost set as events leave the real
// buffer. A capacity eviction is a true drop at a size ≥ minBuff, which
// a minBuff-sized buffer would have made too, so an uncounted one feeds
// avgAge: with the overflow scan this is the pre-garbage-collection
// accounting of Figure 5(b) on a buffer that evicts per insertion. Age
// expiry (the protocol's normal end of life) and resize evictions (a
// transient the minBuff mechanism handles) only prune the lost set.
func (a *Adaptor) OnEvicted(n *gossip.Node, ev gossip.Event, reason gossip.EvictReason) {
	if reason == gossip.EvictCapacity && !a.counted(ev.ID) {
		a.sample(ev)
	} else {
		delete(a.lost, ev.ID)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

var _ gossip.EvictionObserver = (*Adaptor)(nil)
