// Package core implements the adaptation mechanism of "Adaptive
// Gossip-Based Broadcast" (Rodrigues, Handurukande, Pereira, Guerraoui,
// Kermarrec — DSN 2003): the paper's primary contribution.
//
// The mechanism is one per-member loop, the paper's Figure 5, held by
// one Adaptor. It lets every sender adjust its emission rate to the
// resources of the most constrained group member and to the global
// congestion level, without explicit feedback:
//
//   - (a) Resource discovery. A MinBuffEstimator finds the smallest
//     buffer capacity in the group by folding a running minimum through
//     the headers of normal data gossip, sampled in periods so stale
//     minima age out. Each header entry names the member that owns its
//     capacity, so a relayed minimum keeps its owner. With
//     Params.MinBuffRank κ > 1 it adapts to the κ-th smallest buffer
//     instead, and Params.MinBuffFloor clamps its estimate from below
//     at every κ: the generalization the paper sketches in its
//     concluding remarks.
//   - (b) Congestion estimation. avgAge is a purely local moving average
//     of the age of the events that would overflow a buffer of the
//     group-minimum size — the buffer-size-independent congestion
//     signal of paper §2.3.
//   - (c) Rate control. Once a round the allowed rate is cut or raised
//     multiplicatively around the critical age, guarded by avgTokens,
//     the average level of the Figure 3 token bucket (so unused
//     allowances shrink), with randomized increases (so senders do not
//     surge in lockstep). The bucket refills at that one rate and
//     admits each broadcast.
//
// The paper calibrates the critical age ta once for its system (§2.3)
// and fixes the rest of Figure 5 from it (§3.4): the age marks tl and
// th, the sample period Ts = ta·T, the factors δdec and δinc, the rate
// floor and the bucket with its usage marks. They are this package's
// constants. Params holds only what a caller varies: W, α, the
// increase probability, the initial and maximum rates, κ with its
// floor, and the token-check ablation.
//
// AdaptiveNode wires an lpbcast node, an Adaptor and the optional
// recovery, failure-detection and health subsystems into the complete
// broadcast node.
package core
