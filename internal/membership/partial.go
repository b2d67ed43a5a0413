package membership

import (
	"fmt"
	"math"
	"math/rand/v2"

	"adaptivegossip/internal/gossip"
)

// subsPerGossip is the piggybacked membership traffic per outgoing
// gossip message: the sender itself and subsPerGossip-1 subscriptions
// from its pool.
const subsPerGossip = 4

// PartialView is lpbcast's partial-membership mechanism: each node
// knows only a bounded random subset of the group, maintained purely by
// piggybacking subscriptions on data gossip. No member announces a
// departure, so lpbcast's unsubscriptions are not carried. It
// implements both gossip.PeerSampler (targets come from the view) and
// gossip.Extension (membership traffic rides on Message.Subs).
//
// PartialView is owned by a single node and is not safe for concurrent
// use; the node's driver serializes all calls.
type PartialView struct {
	self gossip.NodeID
	// maxView bounds the view (lpbcast's ℓ) and the pool of recently
	// heard subscriptions.
	maxView int
	rng     *rand.Rand

	// weight is the optional proximity-biased sampling mode (see
	// SetSampleWeights); the scratch slices below make the weighted
	// draw allocation-free across rounds.
	weight        PeerWeight
	weightScratch []float64
	candScratch   []gossip.NodeID

	view    []gossip.NodeID
	viewSet map[gossip.NodeID]struct{}

	subs    []gossip.NodeID
	subsSet map[gossip.NodeID]struct{}
}

// NewPartialView creates a view of at most maxView entries seeded with
// the given contacts.
func NewPartialView(self gossip.NodeID, seeds []gossip.NodeID, maxView int, rng *rand.Rand) (*PartialView, error) {
	if maxView <= 0 {
		return nil, fmt.Errorf("membership: view bound must be positive, got %d", maxView)
	}
	if self == "" {
		return nil, fmt.Errorf("membership: self id must not be empty")
	}
	if rng == nil {
		return nil, fmt.Errorf("membership: rng must not be nil")
	}
	v := &PartialView{
		self:    self,
		maxView: maxView,
		rng:     rng,
		viewSet: make(map[gossip.NodeID]struct{}, maxView),
		subsSet: make(map[gossip.NodeID]struct{}, maxView),
	}
	for _, s := range seeds {
		v.addToView(s)
	}
	return v, nil
}

// View returns a copy of the current partial view.
func (v *PartialView) View() []gossip.NodeID {
	return append([]gossip.NodeID(nil), v.view...)
}

// ViewSize reports the current view length.
func (v *PartialView) ViewSize() int { return len(v.view) }

// Contains reports whether id is in the view.
func (v *PartialView) Contains(id gossip.NodeID) bool {
	_, ok := v.viewSet[id]
	return ok
}

// PeerWeight scores a candidate gossip target's relative selection
// probability. Weights must be finite; a weight <= 0 excludes the
// candidate from the draw entirely.
type PeerWeight func(peer gossip.NodeID) float64

// SetSampleWeights switches target selection to proximity-biased
// sampling: peers are drawn from the view without replacement with
// probability proportional to weight(peer), instead of uniformly — the
// topology-aware gossip probability of Haas et al.'s "Gossip-Based Ad
// Hoc Routing", where nearby (cheap) links carry most rounds while the
// occasional long link keeps regions connected. Only target selection
// (AppendPeers) is affected; the view's membership content stays
// uniform lpbcast. Pass nil to restore uniform sampling.
//
// The weighted draw consumes the RNG differently from the uniform one,
// so flipping the mode mid-run changes the randomness downstream of the
// switch.
func (v *PartialView) SetSampleWeights(w PeerWeight) { v.weight = w }

// AppendPeers implements gossip.PeerSampler: it appends up to k
// distinct targets from the partial view to a caller-owned slice (the
// view holds no duplicates, so deduplicating drawn entries by value
// matches a by-index draw).
func (v *PartialView) AppendPeers(dst []gossip.NodeID, self gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	if k <= 0 || len(v.view) == 0 {
		return dst
	}
	if v.weight != nil {
		return v.appendWeighted(dst, k, rng)
	}
	if k >= len(v.view) {
		base := len(dst)
		dst = append(dst, v.view...)
		out := dst[base:]
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return dst
	}
	return appendDistinct(dst, v.view, k, rng)
}

// appendDistinct appends k distinct elements of pool, k < len(pool), to
// dst: uniform draws, a drawn element already appended is drawn again.
// pool holds no duplicates, so rejecting a repeated value consumes the
// RNG exactly as rejecting a repeated index does.
func appendDistinct(dst, pool []gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	base := len(dst)
	for len(dst)-base < k {
		id := pool[rng.IntN(len(pool))]
		dup := false
		for _, got := range dst[base:] {
			if got == id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, id)
	}
	return dst
}

// appendWeighted is the proximity-biased draw (SetSampleWeights):
// weighted sampling without replacement over the view. Zero- and
// negative-weight candidates are excluded up front, so the draw is
// exact — no rounding fallback can resurrect them. The scratch slices
// are reused across calls, keeping the per-round fast path (gossip
// target selection) allocation-free in steady state.
func (v *PartialView) appendWeighted(dst []gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	cands := v.candScratch[:0]
	weights := v.weightScratch[:0]
	total := 0.0
	for _, id := range v.view {
		w := v.weight(id)
		if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
			continue
		}
		cands = append(cands, id)
		weights = append(weights, w)
		total += w
	}
	v.candScratch, v.weightScratch = cands, weights
	if k > len(cands) {
		k = len(cands)
	}
	for drawn := 0; drawn < k && total > 0; drawn++ {
		r := rng.Float64() * total
		i := 0
		for ; i < len(weights)-1; i++ {
			r -= weights[i]
			if r < 0 {
				break
			}
		}
		dst = append(dst, cands[i])
		total -= weights[i]
		last := len(cands) - 1
		cands[i], weights[i] = cands[last], weights[last]
		v.candScratch, v.weightScratch = cands[:last], weights[:last]
		cands, weights = v.candScratch, v.weightScratch
	}
	return dst
}

// OnTick piggybacks membership traffic: the sender's own subscription
// plus a random sample of up to subsPerGossip-1 entries of the subs
// pool, appended in place (out.Subs is the node's round scratch).
func (v *PartialView) OnTick(n *gossip.Node, out *Message) {
	out.Subs = append(out.Subs, v.self)
	if k := subsPerGossip - 1; k >= len(v.subs) {
		out.Subs = append(out.Subs, v.subs...)
	} else {
		out.Subs = appendDistinct(out.Subs, v.subs, k, v.rng)
	}
}

// Message aliases gossip.Message for readability of the Extension
// implementation.
type Message = gossip.Message

// OnReceive merges incoming membership traffic into the local state.
func (v *PartialView) OnReceive(n *gossip.Node, in *Message) {
	for _, s := range in.Subs {
		if s == v.self {
			continue
		}
		v.addToView(s)
		v.addToPool(&v.subs, v.subsSet, s, v.maxView)
	}
}

func (v *PartialView) addToView(id gossip.NodeID) {
	if id == v.self {
		return
	}
	if _, ok := v.viewSet[id]; ok {
		return
	}
	v.view = append(v.view, id)
	v.viewSet[id] = struct{}{}
	// Over capacity: demote a random member to the subs pool so the
	// group's knowledge of it is not lost, as in lpbcast.
	for len(v.view) > v.maxView {
		i := v.rng.IntN(len(v.view))
		demoted := v.view[i]
		v.view[i] = v.view[len(v.view)-1]
		v.view = v.view[:len(v.view)-1]
		delete(v.viewSet, demoted)
		v.addToPool(&v.subs, v.subsSet, demoted, v.maxView)
	}
}

func (v *PartialView) addToPool(pool *[]gossip.NodeID, set map[gossip.NodeID]struct{}, id gossip.NodeID, max int) {
	if _, ok := set[id]; ok {
		return
	}
	if len(*pool) < max {
		*pool = append(*pool, id)
		set[id] = struct{}{}
		return
	}
	// Replace a random element, bounding the pool while keeping churn.
	i := v.rng.IntN(len(*pool))
	delete(set, (*pool)[i])
	(*pool)[i] = id
	set[id] = struct{}{}
}

var (
	_ gossip.PeerSampler = (*PartialView)(nil)
	_ gossip.Extension   = (*PartialView)(nil)
)
