package traced

import (
	"math/rand/v2"
	"time"

	"adaptivegossip/internal/core"
)

// node is the complete protocol state machine: lpbcast, the adaptation
// stack, the token bucket and the optional extensions.
type node = core.AdaptiveNode

// nodeSpec is what the driver decides about a member; newNode maps it
// onto the core layer's configuration the way the cluster facade does.
type nodeSpec struct {
	id     nodeID
	gossip gossipParams
	// adaptive, with the sender's initial and (when positive) maximum
	// allowed rate in msg/s.
	adaptive    bool
	initialRate float64
	maxRate     float64

	recovery     recoveryParams
	failure      failureParams
	health       healthParams
	onMembership func(peer nodeID, status memberStatus)
	peers        peerSource
	rng          *rand.Rand
	deliver      func(event)
	extensions   []extension
	start        time.Time
}

func newNode(s nodeSpec) (*node, error) {
	params := core.DefaultParams()
	if s.initialRate > 0 {
		params.InitialRate = s.initialRate
	}
	if s.maxRate > 0 {
		params.MaxRate = s.maxRate
	}
	return core.NewAdaptiveNode(core.NodeConfig{
		ID:           s.id,
		Gossip:       s.gossip,
		Adaptive:     s.adaptive,
		Core:         params,
		Recovery:     s.recovery,
		Failure:      s.failure,
		OnMembership: s.onMembership,
		Health:       s.health,
		Peers:        s.peers,
		RNG:          s.rng,
		Deliver:      s.deliver,
		Extensions:   s.extensions,
		Start:        s.start,
	})
}
