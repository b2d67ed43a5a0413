package core

import (
	"cmp"
	"fmt"
	"slices"

	"adaptivegossip/internal/gossip"
)

// MinEntry is one (node, capacity) observation carried in the gossip
// header when the κ-smallest extension is active. It aliases the wire
// type gossip.BuffCap.
type MinEntry = gossip.BuffCap

// KMinEstimator generalizes MinBuffEstimator to the κ-th smallest
// buffer in the group, the extension sketched in the paper's concluding
// remarks: adapting to the κ-th smallest (optionally clamped from below
// by a floor) prevents one pathological node from throttling the whole
// group.
//
// Because a bare minimum is idempotent but a multiset of small values
// is not, entries carry node identities and merges deduplicate per
// node, keeping the per-period state bounded at a small multiple of κ.
//
// KMinEstimator is not safe for concurrent use.
type KMinEstimator struct {
	self     gossip.NodeID
	rank     int
	floor    int
	keep     int // per-period entry bound
	window   []map[gossip.NodeID]int
	period   uint64
	localCap int
	rounds   int
	perLen   int

	// Reused scratch so the steady state allocates nothing. hdrScratch
	// backs the Header result, which rides the caller's reused round
	// message; the others never leave their method.
	hdrScratch  []MinEntry
	trimScratch []MinEntry
	merged      map[gossip.NodeID]int
	caps        []int
}

// NewKMinEstimator creates an estimator of the rank-th smallest buffer.
func NewKMinEstimator(self gossip.NodeID, rank, floor, window, samplePeriodRounds, localCap int) (*KMinEstimator, error) {
	if rank < 1 {
		return nil, fmt.Errorf("core: rank must be at least 1, got %d", rank)
	}
	if floor < 0 {
		return nil, fmt.Errorf("core: floor must be non-negative, got %d", floor)
	}
	if window <= 0 || samplePeriodRounds <= 0 || localCap <= 0 {
		return nil, fmt.Errorf("core: window, sample period and capacity must be positive (got %d, %d, %d)",
			window, samplePeriodRounds, localCap)
	}
	e := &KMinEstimator{
		self:     self,
		rank:     rank,
		floor:    floor,
		keep:     4 * rank,
		window:   make([]map[gossip.NodeID]int, window),
		localCap: localCap,
		perLen:   samplePeriodRounds,
		merged:   make(map[gossip.NodeID]int),
	}
	for i := range e.window {
		e.window[i] = map[gossip.NodeID]int{self: localCap}
	}
	return e, nil
}

// Period returns the current sample period.
func (e *KMinEstimator) Period() uint64 { return e.period }

// SetLocalCapacity tracks a local resize; shrinks apply to the current
// period immediately.
func (e *KMinEstimator) SetLocalCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("core: local capacity must be positive, got %d", capacity)
	}
	e.localCap = capacity
	slot := e.window[e.slot(e.period)]
	if old, ok := slot[e.self]; !ok || capacity < old {
		slot[e.self] = capacity
	}
	return nil
}

func (e *KMinEstimator) advance() {
	e.period++
	e.rounds = 0
	e.resetSlot(e.slot(e.period))
}

// slot maps a period to its window index, the modulo taken on the
// uint64 as in MinBuffEstimator.slot.
func (e *KMinEstimator) slot(period uint64) int {
	return int(period % uint64(len(e.window)))
}

// resetSlot reinitializes a window slot to {self: localCap}, reusing the
// slot's map so period turnover allocates nothing.
func (e *KMinEstimator) resetSlot(i int) {
	slot := e.window[i]
	clear(slot)
	slot[e.self] = e.localCap
}

// OnRound accounts one gossip round, reporting whether a new period
// started.
func (e *KMinEstimator) OnRound() bool {
	e.rounds++
	if e.rounds < e.perLen {
		return false
	}
	e.advance()
	return true
}

// Header returns the current period and the κ-smallest entries to
// piggyback. The returned slice is reused scratch: it is valid until the
// next Header call and must be copied (or encoded) before then.
func (e *KMinEstimator) Header() (uint64, []MinEntry) {
	slot := e.window[e.slot(e.period)]
	entries := e.hdrScratch[:0]
	for n, c := range slot {
		entries = append(entries, MinEntry{Node: n, Cap: c})
	}
	sortEntries(entries)
	e.hdrScratch = entries
	if len(entries) > e.rank {
		entries = entries[:e.rank]
	}
	return e.period, entries
}

// sortEntries orders by capacity, then node id for determinism.
func sortEntries(entries []MinEntry) {
	slices.SortFunc(entries, func(a, b MinEntry) int {
		if a.Cap != b.Cap {
			return cmp.Compare(a.Cap, b.Cap)
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// Observe merges a received header into the local state, with the same
// period synchronization rules as MinBuffEstimator: a header from a
// period above maxPeriod is dropped.
func (e *KMinEstimator) Observe(period uint64, entries []MinEntry) {
	if period > maxPeriod {
		return
	}
	w := uint64(len(e.window))
	if period > e.period {
		if period-e.period >= w {
			for i := range e.window {
				e.resetSlot(i)
			}
			e.period = period
			e.rounds = 0
		} else {
			for e.period < period {
				e.advance()
			}
		}
	} else if e.period-period >= w {
		return
	}
	slot := e.window[e.slot(period)]
	for _, ent := range entries {
		if ent.Cap <= 0 {
			continue
		}
		if old, ok := slot[ent.Node]; !ok || ent.Cap < old {
			slot[ent.Node] = ent.Cap
		}
	}
	e.trim(slot)
}

// trim bounds a period map to the keep smallest entries (self always
// retained).
func (e *KMinEstimator) trim(slot map[gossip.NodeID]int) {
	if len(slot) <= e.keep {
		return
	}
	entries := e.trimScratch[:0]
	for n, c := range slot {
		entries = append(entries, MinEntry{Node: n, Cap: c})
	}
	sortEntries(entries)
	e.trimScratch = entries
	for _, ent := range entries[e.keep:] {
		if ent.Node != e.self {
			delete(slot, ent.Node)
		}
	}
}

// Estimate returns the κ-th smallest capacity over the window (the
// largest known if fewer than κ nodes are known), clamped from below by
// the floor.
func (e *KMinEstimator) Estimate() int {
	merged := e.merged
	clear(merged)
	for _, slot := range e.window {
		for n, c := range slot {
			if old, ok := merged[n]; !ok || c < old {
				merged[n] = c
			}
		}
	}
	caps := e.caps[:0]
	for _, c := range merged {
		caps = append(caps, c)
	}
	slices.Sort(caps)
	e.caps = caps
	idx := e.rank - 1
	if idx >= len(caps) {
		idx = len(caps) - 1
	}
	est := caps[idx]
	if e.floor > 0 && est < e.floor {
		est = e.floor
	}
	return est
}
