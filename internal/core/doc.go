// Package core implements the adaptation mechanism of "Adaptive
// Gossip-Based Broadcast" (Rodrigues, Handurukande, Pereira, Guerraoui,
// Kermarrec — DSN 2003): the paper's primary contribution.
//
// Three cooperating mechanisms let every sender adjust its emission
// rate to the resources of the most constrained group member and to the
// global congestion level, without explicit feedback:
//
//   - MinBuffEstimator (paper Figure 5(a)): distributed discovery of the
//     smallest buffer capacity in the group, by folding a running
//     minimum through the headers of normal data gossip, sampled in
//     periods so stale minima age out. Each header entry names the
//     member that owns its capacity, so a relayed minimum keeps its
//     owner. With Params.MinBuffRank κ > 1
//     it adapts to the κ-th smallest buffer instead, and
//     Params.MinBuffFloor clamps its estimate from below at every κ:
//     the generalization the paper sketches in its concluding remarks.
//   - CongestionEstimator (Figure 5(b)): a purely local moving average
//     of the age of the messages that would overflow a buffer of the
//     group-minimum size — the buffer-size-independent congestion
//     signal of paper §2.3.
//   - RateController (Figure 5(c)): multiplicative rate
//     decrease/increase around the critical age, guarded by the
//     token-bucket occupancy (so unused allowances shrink) and
//     randomized increases (so senders do not surge in lockstep).
//
// Adaptor packages the three as a gossip.Extension; AdaptiveNode wires
// an lpbcast node, an Adaptor and the Figure 3 token bucket into the
// complete adaptive broadcast node.
package core
