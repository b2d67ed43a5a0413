package core

// Property-based tests (testing/quick) on the adaptation loop: the
// minBuff estimator, avgAge and the allowed rate.

import (
	"math/rand"
	mrand2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"adaptivegossip/internal/gossip"
)

// TestQuickMinBuffEstimatorModel checks the estimator against a
// reference model that keeps every (node, capacity) pair heard in each
// period: the estimate is the κ-th smallest node over the periods still
// inside the window, each node at its smallest, clamped by the floor,
// and the header is the current period's κ smallest nodes.
func TestQuickMinBuffEstimatorModel(t *testing.T) {
	type obs struct {
		Advance bool
		Resize  bool
		Period  uint8
		Node    uint8
		Value   uint16
	}
	f := func(localCap uint16, window, rank, floor uint8, tape []obs) bool {
		lc := int(localCap)%200 + 1
		w := uint64(window)%4 + 1
		k := int(rank)%3 + 1
		fl := 0
		if floor%2 == 1 {
			fl = int(floor)%150 + 1
		}
		e, err := NewMinBuffEstimator("self", k, fl, int(w), lc)
		if err != nil {
			return false
		}
		model := map[uint64][]MinEntry{0: {{Node: "self", Cap: lc}}}
		curPeriod := uint64(0)
		for _, o := range tape {
			v := int(o.Value) % 300 // 0 is a corrupt header
			switch {
			case o.Advance:
				for range samplePeriodRounds { // exactly one period advance
					e.OnRound()
				}
				curPeriod++
				model[curPeriod] = []MinEntry{{Node: "self", Cap: lc}}
			case o.Resize && v > 0:
				if e.SetLocalCapacity(v) != nil {
					return false
				}
				lc = v
				model[curPeriod] = append(model[curPeriod], MinEntry{Node: "self", Cap: lc})
			default:
				p := uint64(o.Period % 8)
				// Five senders, one of them relaying an entry that names
				// this node.
				ent := MinEntry{Node: []gossip.NodeID{"a", "b", "c", "d", "self"}[o.Node%5], Cap: v}
				e.Observe(p, []MinEntry{ent})
				if v <= 0 {
					continue // dropped whole, period included
				}
				for ; curPeriod < p; curPeriod++ { // clock sync
					model[curPeriod+1] = []MinEntry{{Node: "self", Cap: lc}}
				}
				if curPeriod-p >= w || ent.Node == "self" {
					continue // too old, or a claim about this node: ignored
				}
				model[p] = append(model[p], ent)
			}
		}
		// smallest returns each node's smallest capacity over the given
		// periods, sorted by capacity, then node.
		smallest := func(periods ...uint64) []MinEntry {
			best := map[gossip.NodeID]int{}
			for _, p := range periods {
				for _, ent := range model[p] {
					if old, ok := best[ent.Node]; !ok || ent.Cap < old {
						best[ent.Node] = ent.Cap
					}
				}
			}
			var out []MinEntry
			for n, c := range best {
				out = append(out, MinEntry{Node: n, Cap: c})
			}
			slices.SortFunc(out, compareEntries)
			return out
		}
		var inWindow []uint64
		for q := uint64(0); q < w && q <= curPeriod; q++ {
			inWindow = append(inWindow, curPeriod-q)
		}
		merged := smallest(inWindow...)
		want := max(merged[min(k, len(merged))-1].Cap, fl)
		wantHdr := smallest(curPeriod)
		wantHdr = wantHdr[:min(k, len(wantHdr))]
		s, hdr := e.Header()
		return e.Estimate() == want && s == curPeriod && slices.Equal(hdr, wantHdr)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMinBuffEstimateBounds: whatever happens, the estimate is
// positive and never exceeds the smallest local capacity ever active.
func TestQuickMinBuffEstimateBounds(t *testing.T) {
	f := func(localCap uint8, values []uint16, rounds uint8) bool {
		lc := int(localCap)%100 + 1
		e, err := NewMinBuffEstimator("self", 1, 0, 2, lc)
		if err != nil {
			return false
		}
		for i, v := range values {
			e.Observe(uint64(i%5), []MinEntry{{Node: "peer", Cap: int(v)%200 - 50}}) // includes invalid ≤0 values
			if i%3 == 0 {
				e.OnRound()
			}
		}
		for i := 0; i < int(rounds); i++ {
			e.OnRound()
		}
		est := e.Estimate()
		return est >= 1 && est <= lc
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRateControllerClamped: the allowed rate stays within bounds
// under arbitrary signal sequences.
func TestQuickRateControllerClamped(t *testing.T) {
	p := DefaultParams()
	p.MaxRate = 50
	p.InitialRate = 10
	f := func(ages []float64, tokens []float64) bool {
		c, err := NewAdaptor("q", p, 60, mrand2.New(mrand2.NewPCG(9, 9)), start)
		if err != nil {
			return false
		}
		n := len(ages)
		if len(tokens) < n {
			n = len(tokens)
		}
		for i := 0; i < n; i++ {
			age := ages[i]
			if age < 0 {
				age = -age
			}
			tok := tokens[i]
			if tok < 0 {
				tok = -tok
			}
			decideAt(c, age, tok)
			if c.rate < minRate || c.rate > p.MaxRate {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCongestionEstimatorBounds: avgAge remains within the convex
// hull of its initial value and all observed ages.
func TestQuickCongestionEstimatorBounds(t *testing.T) {
	f := func(initial uint8, ages []uint8) bool {
		init := float64(initial % 20)
		c, err := NewAdaptor("q", DefaultParams(), 60, mrand2.New(mrand2.NewPCG(9, 9)), start)
		if err != nil {
			return false
		}
		c.avgAge = init
		lo, hi := init, init
		for i, a := range ages {
			age := int(a % 30)
			c.countOverflow([]gossip.Event{{ID: gossip.EventID{Origin: "q", Seq: uint64(i)}, Age: age}})
			if float64(age) < lo {
				lo = float64(age)
			}
			if float64(age) > hi {
				hi = float64(age)
			}
			if c.avgAge < lo-1e-9 || c.avgAge > hi+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(54))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
