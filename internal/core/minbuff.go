package core

import (
	"cmp"
	"fmt"
	"slices"

	"adaptivegossip/internal/gossip"
)

// MinEntry is one (node, capacity) observation of an adaptation
// header. It aliases the wire type gossip.BuffCap.
type MinEntry = gossip.BuffCap

// MinBuffEstimator is the distributed discovery of resource
// availability of paper Figure 5(a), generalized to the κ-th smallest
// buffer its concluding remarks sketch: adapting to the κ-th smallest,
// optionally clamped from below by a floor, keeps one pathological
// node from throttling the whole group. κ = 1 without a floor is the
// paper's running minimum.
//
// Time is divided into sample periods of samplePeriodRounds gossip
// rounds. Within each period the estimator keeps the κ smallest
// (node, capacity) entries heard in gossip headers, one per node at its
// smallest, seeded with the local capacity. The working estimate is the
// κ-th smallest node over the last Window periods, which smooths the
// start-of-period reset while letting a departed constrained node's
// value age out after Window periods. Keeping only the κ smallest per
// period loses nothing: a node outside them has κ smaller nodes in that
// period, so it is outside the κ smallest of the window too.
//
// Periods are loosely synchronized: receiving a header from a later
// period fast-forwards the local period counter, the paper's clock
// synchronization rule.
//
// MinBuffEstimator is not safe for concurrent use.
type MinBuffEstimator struct {
	self     gossip.NodeID
	rank     int          // κ
	floor    int          // 0 disables the floor
	window   [][]MinEntry // ring indexed by period % len; each the period's κ smallest, sorted
	period   uint64
	localCap int
	rounds   int // rounds elapsed in the current period
	advances uint64

	// Reused scratch so the steady state allocates nothing. hdr backs
	// the Header result, which rides the caller's reused round message;
	// merged never leaves Estimate.
	hdr    []MinEntry
	merged []MinEntry
}

// NewMinBuffEstimator creates an estimator of the rank-th smallest
// buffer for node self, whose local buffer capacity is localCap.
func NewMinBuffEstimator(self gossip.NodeID, rank, floor, window, localCap int) (*MinBuffEstimator, error) {
	if rank < 1 {
		return nil, fmt.Errorf("core: rank must be at least 1, got %d", rank)
	}
	if floor < 0 {
		return nil, fmt.Errorf("core: floor must be non-negative, got %d", floor)
	}
	if window <= 0 || localCap <= 0 {
		return nil, fmt.Errorf("core: window and capacity must be positive (got %d, %d)", window, localCap)
	}
	e := &MinBuffEstimator{
		self:     self,
		rank:     rank,
		floor:    floor,
		window:   make([][]MinEntry, window),
		localCap: localCap,
		hdr:      make([]MinEntry, 0, rank),
		merged:   make([]MinEntry, 0, window*rank),
	}
	for i := range e.window {
		e.window[i] = append(make([]MinEntry, 0, rank), MinEntry{Node: self, Cap: localCap})
	}
	return e, nil
}

// Period returns the current sample period s.
func (e *MinBuffEstimator) Period() uint64 { return e.period }

// Advances counts period transitions (local and synchronized).
func (e *MinBuffEstimator) Advances() uint64 { return e.advances }

// SetLocalCapacity tracks a local buffer resize. A shrink takes effect
// in the current period immediately (the node's own capacity always
// participates); growth propagates only as new periods start, exactly
// as in the paper's window scheme.
func (e *MinBuffEstimator) SetLocalCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("core: local capacity must be positive, got %d", capacity)
	}
	e.localCap = capacity
	e.fold(e.slot(e.period), MinEntry{Node: e.self, Cap: capacity})
	return nil
}

// slot maps a period to its window index. The modulo is taken on the
// uint64: a received period at or above 2⁶³ converted to int first
// would index the window at a negative slot.
func (e *MinBuffEstimator) slot(period uint64) int {
	return int(period % uint64(len(e.window)))
}

// advanceTo moves the clock forward to period. Every slot it passes
// restarts from the local capacity, all of them when the jump spans
// the whole window.
func (e *MinBuffEstimator) advanceTo(period uint64) {
	for k := range min(period-e.period, uint64(len(e.window))) {
		i := e.slot(period - k)
		e.window[i] = append(e.window[i][:0], MinEntry{Node: e.self, Cap: e.localCap})
	}
	e.advances += period - e.period
	e.period = period
	e.rounds = 0
}

// OnRound accounts one gossip round and reports whether a new sample
// period started.
func (e *MinBuffEstimator) OnRound() bool {
	e.rounds++
	if e.rounds < samplePeriodRounds {
		return false
	}
	e.advanceTo(e.period + 1)
	return true
}

// Header returns the current period and its κ smallest entries, sorted
// ascending, to piggyback on outgoing gossip; the first is the
// paper's minBuff, named by its owner. The slice is reused scratch: it is valid
// until the next Header call and must be copied (or encoded) before
// then.
func (e *MinBuffEstimator) Header() (uint64, []MinEntry) {
	e.hdr = append(e.hdr[:0], e.window[e.slot(e.period)]...)
	return e.period, e.hdr
}

// maxPeriod is the last sample period a header may carry. A member
// starts at 0 and counts one period per samplePeriodRounds rounds, so
// no honest header comes near it; a higher one is forged, and
// following it would let the counter wrap past 2⁶⁴ onto the slot it
// just wrote.
const maxPeriod = 1<<63 - 1

// Observe folds a received header into the local state. Headers from
// later periods fast-forward the period counter (loose clock sync);
// headers within the window update the corresponding period's
// entries; older headers are ignored. A header from a period above
// maxPeriod, or with no entry or an entry whose capacity is not
// positive, is dropped whole, period included: a corrupt header must
// not poison the estimate. An entry naming this node is skipped: the
// node knows its own capacity, and a peer's claim about it is at best
// a stale copy.
func (e *MinBuffEstimator) Observe(period uint64, entries []MinEntry) {
	if period > maxPeriod || len(entries) == 0 {
		return
	}
	for _, ent := range entries {
		if ent.Cap <= 0 {
			return
		}
	}
	if period > e.period {
		e.advanceTo(period)
	} else if e.period-period >= uint64(len(e.window)) {
		return // stale beyond the window
	}
	i := e.slot(period)
	for _, ent := range entries {
		if ent.Node != e.self {
			e.fold(i, ent)
		}
	}
}

// fold lowers ent's node to ent.Cap in slot i, or adds it, keeping the
// slot the κ smallest nodes sorted by compareEntries.
func (e *MinBuffEstimator) fold(i int, ent MinEntry) {
	s := e.window[i]
	if j := slices.IndexFunc(s, func(o MinEntry) bool { return o.Node == ent.Node }); j >= 0 {
		if ent.Cap >= s[j].Cap {
			return
		}
		s = slices.Delete(s, j, j+1)
	} else if len(s) == e.rank {
		if compareEntries(ent, s[len(s)-1]) > 0 {
			return
		}
		s = s[:len(s)-1]
	}
	j, _ := slices.BinarySearchFunc(s, ent, compareEntries)
	e.window[i] = slices.Insert(s, j, ent)
}

// compareEntries orders by capacity, then node id for determinism.
func compareEntries(a, b MinEntry) int {
	if c := cmp.Compare(a.Cap, b.Cap); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// Estimate returns the working minBuff: the κ-th smallest node over the
// window, each node counted once at its smallest (the largest known if
// fewer than κ nodes are known), clamped from below by the floor.
func (e *MinBuffEstimator) Estimate() int {
	all := e.merged[:0]
	for _, s := range e.window {
		all = append(all, s...)
	}
	slices.SortFunc(all, compareEntries)
	e.merged = all
	// Compact the distinct nodes to the front in place: the write index
	// never passes the read index.
	distinct := all[:0]
	for _, ent := range all {
		if !slices.ContainsFunc(distinct, func(d MinEntry) bool { return d.Node == ent.Node }) {
			if distinct = append(distinct, ent); len(distinct) == e.rank {
				break
			}
		}
	}
	return max(distinct[len(distinct)-1].Cap, e.floor)
}
