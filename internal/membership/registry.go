// Package membership provides gossip target selection: a static
// full-membership Registry (the model used for the paper's experiments)
// and an lpbcast-style PartialView that maintains a bounded random
// subset of the group through subscription gossip, demonstrating that
// the adaptive mechanism needs no full membership knowledge (paper §5).
package membership

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"adaptivegossip/internal/gossip"
)

// Registry is a full-membership view shared by a set of nodes. It is
// safe for concurrent use: runtime nodes sample peers from their own
// goroutines while joins and leaves mutate the set.
type Registry struct {
	mu    sync.RWMutex
	ids   []gossip.NodeID
	index map[gossip.NodeID]int
}

// NewRegistry returns a registry holding the given members.
func NewRegistry(ids ...gossip.NodeID) *Registry {
	r := &Registry{index: make(map[gossip.NodeID]int, len(ids))}
	for _, id := range ids {
		r.add(id)
	}
	return r
}

func (r *Registry) add(id gossip.NodeID) bool {
	if _, ok := r.index[id]; ok {
		return false
	}
	r.index[id] = len(r.ids)
	r.ids = append(r.ids, id)
	return true
}

// Add registers a member, reporting whether it was new.
func (r *Registry) Add(id gossip.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(id)
}

// Remove unregisters a member, reporting whether it was present.
func (r *Registry) Remove(id gossip.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	pos, ok := r.index[id]
	if !ok {
		return false
	}
	last := len(r.ids) - 1
	r.ids[pos] = r.ids[last]
	r.index[r.ids[pos]] = pos
	r.ids = r.ids[:last]
	delete(r.index, id)
	return true
}

// ApplyVerdict maintains the view from a failure detector's
// transitions (it has the detector's callback signature): a member
// confirmed crashed leaves the gossip target set, a member that refuted
// or rejoined returns to it, and suspicion alone changes nothing.
func (r *Registry) ApplyVerdict(id gossip.NodeID, status gossip.MemberStatus) {
	switch status {
	case gossip.MemberConfirmed:
		r.Remove(id)
	case gossip.MemberAlive:
		r.Add(id)
	}
}

// Len reports the number of members.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// Contains reports whether id is a member.
func (r *Registry) Contains(id gossip.NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.index[id]
	return ok
}

// IDs returns a copy of the member list.
func (r *Registry) IDs() []gossip.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]gossip.NodeID(nil), r.ids...)
}

// AppendPeers implements gossip.PeerSampler: it appends up to k
// distinct members other than self, chosen uniformly at random, to a
// caller-owned slice, so a node's per-round target selection allocates
// nothing.
func (r *Registry) AppendPeers(dst []gossip.NodeID, self gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.ids)
	if n == 0 || k <= 0 {
		return dst
	}
	_, hasSelf := r.index[self]
	others := n
	if hasSelf {
		others--
	}
	if others <= 0 {
		return dst
	}
	base := len(dst)
	if k >= others {
		// Return all other members, shuffled for unbiased ordering.
		for _, id := range r.ids {
			if id != self {
				dst = append(dst, id)
			}
		}
		out := dst[base:]
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return dst
	}
	// Rejection sampling: k is small relative to the group (fanout ≈ 4
	// of 60), so collisions are rare and a linear dedup scan over the
	// ≤ k appended entries beats a map.
	for len(dst)-base < k {
		id := r.ids[rng.IntN(n)]
		if id == self {
			continue
		}
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

var _ gossip.PeerSampler = (*Registry)(nil)

// String describes the registry for debugging.
func (r *Registry) String() string {
	return fmt.Sprintf("membership.Registry(%d members)", r.Len())
}
