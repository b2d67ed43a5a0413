package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

// newAdaptor builds the loop of member "a", whose buffer holds 60
// events, with its bucket full at start.
func newAdaptor(t testing.TB, p Params) *Adaptor {
	t.Helper()
	a, err := NewAdaptor("a", p, 60, rand.New(rand.NewPCG(5, 6)), start)
	if err != nil {
		t.Fatalf("NewAdaptor: %v", err)
	}
	return a
}

// decideAt runs the Figure 5(c) decision on the given avgAge and
// avgTokens.
func decideAt(a *Adaptor, avgAge, avgTokens float64) Adjustment {
	a.avgAge, a.avgTokens = avgAge, avgTokens
	return a.decide()
}

func evWithAge(seq uint64, age int) gossip.Event {
	return gossip.Event{ID: gossip.EventID{Origin: "x", Seq: seq}, Age: age}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

// TestFigure5Constants: Figure 5's constants keep the relations Validate
// checked while they were Params fields, and MaxRate is still checked
// against the rate floor.
func TestFigure5Constants(t *testing.T) {
	for _, c := range []struct {
		rule string
		ok   bool
	}{
		{"0 < tl ≤ ta ≤ th and tl < th", 0 < lowAge && lowAge <= targetAge && targetAge <= highAge && lowAge < highAge},
		{"0 < δdec < 1", 0 < decreaseFactor && decreaseFactor < 1},
		{"δinc > 0", increaseFactor > 0},
		{"Ts ≥ 1 round", samplePeriodRounds >= 1},
		{"bucket ≥ 1 token", bucketMax >= 1},
		{"0 ≤ low tokens ≤ high tokens ≤ 1", 0 <= lowTokensFrac && lowTokensFrac <= highTokensFrac && highTokensFrac <= 1},
		{"0 < minRate ≤ DefaultMaxRate", 0 < minRate && minRate <= DefaultMaxRate},
	} {
		if !c.ok {
			t.Errorf("Figure 5's constants break %s", c.rule)
		}
	}
	p := DefaultParams()
	if p.MaxRate = minRate; p.Validate() != nil {
		t.Errorf("MaxRate at the floor %v refused: %v", minRate, p.Validate())
	}
	if p.MaxRate = minRate / 2; p.Validate() == nil {
		t.Errorf("MaxRate %v below the floor %v accepted", p.MaxRate, minRate)
	}
}

// newAgeAdaptor builds an adaptor that weighs history by alpha, with
// avgAge started at initial.
func newAgeAdaptor(t testing.TB, alpha, initial float64) *Adaptor {
	t.Helper()
	p := DefaultParams()
	p.Alpha = alpha
	a := newAdaptor(t, p)
	a.avgAge = initial
	return a
}

func TestCongestionValidation(t *testing.T) {
	for name, edit := range map[string]func(*Params){
		"alpha=1": func(p *Params) { p.Alpha = 1 },
		"alpha<0": func(p *Params) { p.Alpha = -0.1 },
	} {
		p := DefaultParams()
		edit(&p)
		if _, err := NewAdaptor("a", p, 60, rand.New(rand.NewPCG(1, 1)), start); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCongestionEMA(t *testing.T) {
	a := newAgeAdaptor(t, 0.5, 4)
	a.countOverflow([]gossip.Event{evWithAge(1, 8)})
	// 0.5*4 + 0.5*8 = 6
	if got := a.avgAge; got != 6 {
		t.Fatalf("avgAge = %v, want 6", got)
	}
	a.countOverflow([]gossip.Event{evWithAge(2, 2)})
	// 0.5*6 + 0.5*2 = 4
	if got := a.avgAge; got != 4 {
		t.Fatalf("avgAge = %v, want 4", got)
	}
	if a.samples != 2 {
		t.Fatalf("samples = %d", a.samples)
	}
}

// TestCongestionLostSetLifecycle: an overflow event is counted once and
// remembered until it leaves the buffer, for whatever reason; a capacity
// drop of an uncounted event feeds avgAge without being remembered.
func TestCongestionLostSetLifecycle(t *testing.T) {
	a := newAgeAdaptor(t, 0.9, 5)
	one, two, three := evWithAge(1, 3), evWithAge(2, 4), evWithAge(3, 6)
	a.countOverflow([]gossip.Event{one, two})
	if !a.counted(one.ID) {
		t.Fatal("counted event not in lost set")
	}
	if len(a.lost) != 2 {
		t.Fatalf("lost len = %d", len(a.lost))
	}
	a.OnEvicted(nil, one, gossip.EvictExpired)
	if a.counted(one.ID) {
		t.Fatal("forgotten event still counted")
	}
	if len(a.lost) != 1 {
		t.Fatalf("lost len = %d after forget", len(a.lost))
	}
	a.OnEvicted(nil, evWithAge(9, 1), gossip.EvictResize) // unknown: no-op
	if len(a.lost) != 1 || a.samples != 2 {
		t.Fatalf("lost len %d, samples %d after an unknown eviction, want 1 and 2", len(a.lost), a.samples)
	}
	// A counted event dropped for capacity is forgotten, not counted again.
	a.OnEvicted(nil, two, gossip.EvictCapacity)
	if a.counted(two.ID) || a.samples != 2 {
		t.Fatalf("capacity drop of a counted event: counted %v, samples %d, want false and 2", a.counted(two.ID), a.samples)
	}
	// An uncounted one is a sample.
	alpha, before := a.p.Alpha, a.avgAge
	a.OnEvicted(nil, three, gossip.EvictCapacity)
	if a.counted(three.ID) || a.samples != 3 || a.avgAge != alpha*before+(1-alpha)*6 {
		t.Fatalf("capacity drop of an uncounted event: counted %v, samples %d, avgAge %v", a.counted(three.ID), a.samples, a.avgAge)
	}
}

// TestCongestionDrift: rounds that feed avgAge no sample drift it to
// the max age.
func TestCongestionDrift(t *testing.T) {
	a := newAgeAdaptor(t, 0.9, 2)
	for i := 0; i < 50; i++ {
		a.EndRound(10)
	}
	if got := a.avgAge; math.Abs(got-10) > 0.1 {
		t.Fatalf("avgAge = %v, want ≈10 after drifting", got)
	}
	// A round with a sample does not drift.
	a.countOverflow([]gossip.Event{evWithAge(1, 2)})
	before := a.avgAge
	if a.EndRound(10); a.avgAge != before {
		t.Fatalf("avgAge = %v after a round with a sample, want %v", a.avgAge, before)
	}
}

// TestCongestionConvergesToSignal: feeding a constant age converges the
// average to that age regardless of the start.
func TestCongestionConvergesToSignal(t *testing.T) {
	a := newAgeAdaptor(t, 0.9, 20)
	for i := uint64(0); i < 200; i++ {
		a.countOverflow([]gossip.Event{evWithAge(i, 3)})
	}
	if got := a.avgAge; math.Abs(got-3) > 0.05 {
		t.Fatalf("avgAge = %v, want ≈3", got)
	}
}

func ctrlParams() Params {
	p := DefaultParams()
	p.InitialRate = 10
	p.IncreaseProb = 1 // deterministic increases unless a test overrides
	return p
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewAdaptor("a", Params{}, 60, rand.New(rand.NewPCG(1, 1)), start); err == nil {
		t.Fatal("zero params accepted")
	}
	if _, err := NewAdaptor("a", DefaultParams(), 60, nil, start); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRateDecreaseOnLowAge(t *testing.T) {
	p := ctrlParams()
	c := newAdaptor(t, p)
	// avgAge at the low mark: decrease by δdec.
	if got := decideAt(c, lowAge, 0); got != AdjustDecreaseAge {
		t.Fatalf("adjustment = %v", got)
	}
	want := 10 * (1 - decreaseFactor)
	if c.rate != want {
		t.Fatalf("rate = %v, want %v", c.rate, want)
	}
	if c.stats.DecreasesAge != 1 {
		t.Fatalf("stats %+v", c.stats)
	}
}

func TestRateDecreaseOnUnusedAllowance(t *testing.T) {
	p := ctrlParams()
	c := newAdaptor(t, p)
	// avgAge healthy but tokens pooling up: the inflated-allowance guard.
	if got := decideAt(c, targetAge, highTokensFrac*bucketMax); got != AdjustDecreaseUnused {
		t.Fatalf("adjustment = %v", got)
	}
	if c.rate >= 10 {
		t.Fatalf("rate did not decrease: %v", c.rate)
	}
}

func TestRateIncreaseRequiresUsedAllowance(t *testing.T) {
	p := ctrlParams()
	c := newAdaptor(t, p)
	// High age but tokens half-full (above lowTokensFrac): no increase.
	mid := (lowTokensFrac + highTokensFrac) / 2 * bucketMax
	if got := decideAt(c, highAge, mid); got != AdjustNone {
		t.Fatalf("adjustment = %v, want none", got)
	}
	// Fully used allowance: increase fires.
	if got := decideAt(c, highAge, 0); got != AdjustIncrease {
		t.Fatalf("adjustment = %v, want increase", got)
	}
	want := 10 * (1 + increaseFactor)
	if c.rate != want {
		t.Fatalf("rate = %v, want %v", c.rate, want)
	}
}

func TestRateDecreasePrecedence(t *testing.T) {
	c := newAdaptor(t, ctrlParams())
	// Both a low age and increase-enabling tokens: decrease wins.
	if got := decideAt(c, lowAge, 0); got != AdjustDecreaseAge {
		t.Fatalf("adjustment = %v, want decrease", got)
	}
}

func TestRateNeutralZoneHolds(t *testing.T) {
	c := newAdaptor(t, ctrlParams())
	mid := (lowAge + highAge) / 2
	for i := 0; i < 10; i++ {
		if got := decideAt(c, mid, 0); got != AdjustNone {
			t.Fatalf("adjustment = %v in neutral zone", got)
		}
	}
	if c.rate != 10 {
		t.Fatalf("rate moved in neutral zone: %v", c.rate)
	}
}

func TestRateRandomizedIncrease(t *testing.T) {
	p := ctrlParams()
	p.IncreaseProb = 0.25
	c := newAdaptor(t, p)
	fired, skipped := 0, 0
	for i := 0; i < 4000; i++ {
		c.rate = 10
		switch decideAt(c, highAge, 0) {
		case AdjustIncrease:
			fired++
		case AdjustIncreaseSkipped:
			skipped++
		default:
			t.Fatal("unexpected adjustment")
		}
	}
	frac := float64(fired) / float64(fired+skipped)
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("increase probability ≈ %v, want ≈0.25", frac)
	}
}

func TestRateClamping(t *testing.T) {
	p := ctrlParams()
	p.MaxRate = 12
	c := newAdaptor(t, p)
	for i := 0; i < 100; i++ { // 10·0.88¹⁰⁰ is far below the floor
		decideAt(c, lowAge, 0)
	}
	if c.rate != minRate {
		t.Fatalf("rate = %v, want clamp at minRate %v", c.rate, minRate)
	}
	for i := 0; i < 400; i++ { // 0.01·1.05⁴⁰⁰ is far above the ceiling
		decideAt(c, highAge, 0)
	}
	if c.rate != 12 {
		t.Fatalf("rate = %v, want clamp at MaxRate 12", c.rate)
	}
	p.InitialRate = 1000
	if c := newAdaptor(t, p); c.rate != 12 {
		t.Fatalf("initial rate bypassed clamp: %v", c.rate)
	}
}

func TestRateDisableTokenCheck(t *testing.T) {
	p := ctrlParams()
	p.DisableTokenCheck = true
	c := newAdaptor(t, p)
	// Pooling tokens no longer force decreases.
	if got := decideAt(c, targetAge, bucketMax); got != AdjustNone {
		t.Fatalf("adjustment = %v, want none with token check disabled", got)
	}
	// And increases no longer require a used allowance.
	if got := decideAt(c, highAge, bucketMax); got != AdjustIncrease {
		t.Fatalf("adjustment = %v, want increase", got)
	}
}

func TestAdjustmentString(t *testing.T) {
	for adj, want := range map[Adjustment]string{
		AdjustNone:            "none",
		AdjustDecreaseAge:     "decrease(age)",
		AdjustDecreaseUnused:  "decrease(unused)",
		AdjustIncrease:        "increase",
		AdjustIncreaseSkipped: "increase(skipped)",
		Adjustment(42):        "Adjustment(42)",
	} {
		if got := adj.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(adj), got, want)
		}
	}
}

// newBucket builds an adaptor whose bucket, full at start, refills at
// rate tokens per second.
func newBucket(t testing.TB, rate float64) *Adaptor {
	t.Helper()
	p := DefaultParams()
	p.InitialRate = rate
	p.MaxRate = math.Max(p.MaxRate, rate)
	return newAdaptor(t, p)
}

func TestNewBucketValidation(t *testing.T) {
	for name, edit := range map[string]func(*Params){
		"rate=0": func(p *Params) { p.InitialRate = 0 },
		"rate<0": func(p *Params) { p.InitialRate = -1 },
	} {
		p := DefaultParams()
		edit(&p)
		if _, err := NewAdaptor("a", p, 60, rand.New(rand.NewPCG(1, 1)), start); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestBucketStartsFull(t *testing.T) {
	b := newBucket(t, 1)
	for i := 0; i < int(math.Floor(bucketMax)); i++ {
		if !b.Admit(start) {
			t.Fatalf("take %d failed on full bucket", i)
		}
	}
	if b.Admit(start) {
		t.Fatal("take succeeded on empty bucket")
	}
}

func TestBucketRefill(t *testing.T) {
	b := newBucket(t, 2) // 2 tokens/s
	b.tokens = 0
	if b.Admit(start.Add(400 * time.Millisecond)) {
		t.Fatal("0.8 tokens should not allow a take")
	}
	if !b.Admit(start.Add(600 * time.Millisecond)) {
		t.Fatal("1.2 tokens should allow a take")
	}
	// Refill caps at max.
	if b.fill(start.Add(time.Hour)); b.tokens != bucketMax {
		t.Fatalf("tokens after long idle = %v, want cap %v", b.tokens, bucketMax)
	}
}

func TestBucketClockGoingBackwardsIsIgnored(t *testing.T) {
	b := newBucket(t, 1)
	b.Admit(start.Add(time.Second))
	b.fill(start.Add(time.Second))
	before := b.tokens
	if b.fill(start); b.tokens != before {
		t.Fatalf("tokens changed on clock rewind: %v -> %v", before, b.tokens)
	}
}

// TestBucketRefillsAtOldRateUntilAdjust: Adjust credits the refill
// accrued at the old rate before it changes the rate.
func TestBucketRefillsAtOldRateUntilAdjust(t *testing.T) {
	b := newBucket(t, 1)
	b.tokens = 0
	// Accrue 1s at rate 1, then a congested round cuts the rate.
	b.avgAge = lowAge
	if got := b.Adjust(start.Add(time.Second)); got != AdjustDecreaseAge {
		t.Fatalf("adjustment = %v, want decrease(age)", got)
	}
	newRate := 1 - decreaseFactor
	if b.rate != newRate {
		t.Fatalf("rate = %v, want %v", b.rate, newRate)
	}
	// 1 (old rate) + newRate×1s (new rate) tokens at t=2s.
	if b.fill(start.Add(2 * time.Second)); math.Abs(b.tokens-(1+newRate)) > 1e-9 {
		t.Fatalf("tokens = %v, want %v", b.tokens, 1+newRate)
	}
}

// TestBucketConservation: over any schedule of takes, the number of
// successful takes never exceeds initial + rate×elapsed (no token is
// minted from nothing).
func TestBucketConservation(t *testing.T) {
	const (
		max  = bucketMax
		rate = 7.0
	)
	b := newBucket(t, rate)
	takes := 0
	now := start
	for i := 0; i < 10000; i++ {
		now = now.Add(time.Duration(i%13) * time.Millisecond)
		if b.Admit(now) {
			takes++
		}
	}
	elapsed := now.Sub(start).Seconds()
	budget := max + rate*elapsed
	if float64(takes) > budget+1e-6 {
		t.Fatalf("takes %d exceed token budget %v", takes, budget)
	}
	// And the bucket was not pathologically stingy: at least the refill
	// from full seconds must have been usable.
	if float64(takes) < rate*elapsed-max-1 {
		t.Fatalf("takes %d far below budget %v", takes, budget)
	}
}

// BenchmarkAdmit measures the admission fast path.
func BenchmarkAdmit(b *testing.B) {
	bucket := newBucket(b, 1e9)
	now := start
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		bucket.Admit(now)
	}
}
