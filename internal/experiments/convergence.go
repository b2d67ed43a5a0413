package experiments

import (
	"fmt"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/sim"
)

// ConvergenceRound records one round of a dissemination experiment.
type ConvergenceRound struct {
	Round int
	// MinCoverage / MeanCoverage are the smallest and mean fraction of
	// the cluster each node has a digest for (own digest included).
	MinCoverage  float64
	MeanCoverage float64
	// FullNodes counts nodes whose view covers the whole cluster.
	FullNodes int
}

// ConvergenceResult summarizes a digest dissemination experiment.
type ConvergenceResult struct {
	// RoundsToFull is the first round after which every node holds a
	// digest for every member, or 0 if maxRounds elapsed first.
	RoundsToFull int
	Trace        []ConvergenceRound
}

// RunConvergence measures how quickly piggybacked health digests reach
// full cluster coverage: n members in the simulator on a lossless,
// instant fabric, each ticking once a round from a random phase, fanout
// F, the given digest budget per message, and a deterministic seed. It
// returns after every node knows every member or maxRounds rounds,
// whichever comes first. Both the n>=1000 convergence test and the
// gossipsim healthdigest figure drive it.
func RunConvergence(n, fanout, digestsPerMessage, maxRounds int, seed int64) (ConvergenceResult, error) {
	var res ConvergenceResult
	if n < 2 {
		return res, fmt.Errorf("experiments: convergence needs at least 2 nodes, got %d", n)
	}
	const period = time.Second
	sched := sim.NewScheduler(sim.Epoch)
	net, err := sim.NewNetwork(sched, sim.NetworkRNG(seed))
	if err != nil {
		return res, err
	}
	ids := make([]gossip.NodeID, n)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("n%04d", i))
	}
	reg := membership.NewRegistry(ids...)
	engines := make([]*health.Engine, n)
	for i, id := range ids {
		engines[i] = health.New(id, health.Params{Enabled: true, DigestsPerMessage: digestsPerMessage}, nil)
		engines[i].Now = sched.Now
		node, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:         id,
			Gossip:     gossip.Params{Fanout: fanout, Period: period, MaxEvents: 32, MaxAge: 8},
			Peers:      reg,
			RNG:        sim.NodeRNG(seed, i),
			Extensions: []gossip.Extension{engines[i]},
			Start:      sim.Epoch,
		})
		if err != nil {
			return res, err
		}
		net.Drive(node, period, time.Duration(sim.PhaseRNG(seed, i).Float64()*float64(period)))
	}

	for round := 1; round <= maxRounds; round++ {
		sched.RunUntil(sim.Epoch.Add(time.Duration(round) * period))
		minCov, sumCov, full := 1.0, 0.0, 0
		for _, eng := range engines {
			cov := float64(eng.Members()) / float64(n)
			sumCov += cov
			minCov = min(minCov, cov)
			if eng.Members() == n {
				full++
			}
		}
		res.Trace = append(res.Trace, ConvergenceRound{
			Round:        round,
			MinCoverage:  minCov,
			MeanCoverage: sumCov / float64(n),
			FullNodes:    full,
		})
		if full == n {
			res.RoundsToFull = round
			break
		}
	}
	return res, nil
}
