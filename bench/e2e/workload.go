// Package e2e is gossipbench's end-to-end harness: it generates each
// workload's inputs from a seed, drives them through the root
// adaptivegossip package's public API only, records every delivery and
// checks it. It imports the standard library and the root package and
// nothing else (isolation_test.go pins that), so the numbers it
// produces cannot depend on how the layers underneath are arranged.
package e2e

import (
	"fmt"
	"time"
)

// Workload is one fixed configuration the benchmark runs. The four
// defined here are the benchmark's whole input space; their names are
// part of the contract in BENCHMARK.json.
type Workload struct {
	Name string
	// Why records what the workload stresses and what it bypasses.
	Why string
	// Sim selects the discrete-event simulator (Simulate) instead of a
	// real loopback-UDP cluster.
	Sim bool

	N      int
	Fanout int
	Period time.Duration
	MaxAge int
	// Buffer is |events|max at every member; ShrinkTo > 0 resizes
	// member 0 after start (the paper's dynamic-resource scenario).
	Buffer   int
	ShrinkTo int

	// Adaptive switches the paper's mechanism on, starting every sender
	// at InitialRate msg/s.
	Adaptive    bool
	InitialRate float64

	// OfferedRate is the aggregate open-loop Poisson load in events/s;
	// PayloadBytes includes the 16-byte header.
	OfferedRate  float64
	PayloadBytes int

	Compression string
	// Extensions switches recovery, failure detection and health
	// digests on together; Loss is the injected iid datagram loss.
	Extensions bool
	Loss       float64
	// SuspicionRounds is the failure detector's suspect-to-confirm
	// timeout. The default of 5 rounds suits the paper's 5 s period; at
	// 20 ms it is 100 ms, which under 5% loss on two busy cores
	// declares live members crashed in every run.
	SuspicionRounds int

	// SetupTrials is how many times a UDP run sets the group up; setup_s
	// is the median and the last trial's cluster is the one measured. (A
	// simulator run makes one set-up trial before each of its parts.)
	SetupTrials int
	// Warmup precedes the measured window and is excluded from it. For
	// Sim it is virtual time.
	Warmup time.Duration
	// VirtualPerSecond is how much virtual time a Sim workload measures
	// per second of --seconds.
	VirtualPerSecond time.Duration
	// MinAtomicity is the oracle's floor on the atomicity metric (0 =
	// unchecked).
	MinAtomicity float64
}

// Workloads returns the benchmark's four workloads in report order.
func Workloads() []Workload {
	udp := Workload{N: 16, Fanout: 4, Period: 20 * time.Millisecond, MaxAge: 10, SetupTrials: 5, Warmup: 4 * time.Second}

	steady := udp
	steady.Name = "udp_steady"
	steady.Why = "lpbcast baseline, 200 B payloads, nothing refused: largest stored frames, so codec, UDP sockets and runner hand-offs do the work and core does none"
	steady.Buffer = 120
	steady.OfferedRate = 600
	steady.PayloadBytes = 200

	overload := udp
	overload.Name = "udp_overload"
	overload.Why = "the paper's scenario: 1.5x overload, member 0 shrunk to buffer 30, 32 B payloads: core must throttle to the smallest buffer; per-datagram cost dominates"
	overload.Buffer = 60
	overload.ShrinkTo = 30
	overload.Adaptive = true
	overload.InitialRate = 20
	overload.OfferedRate = 1500
	overload.PayloadBytes = 32
	overload.MinAtomicity = 0.95

	full := udp
	full.Name = "udp_full"
	full.Why = "everything a deployment switches on: adaptation, flate, recovery, failure detection, health digests, 5% loss: compression and the extensions do most of the work"
	full.Buffer = 120
	full.Adaptive = true
	// A flate writer and reader per datagram cost about 270 us whatever
	// the datagram holds, so at the other workloads' 20 ms this one kept
	// 0.8 of a core busy and saturated whenever the shared host slowed
	// (README, "First baseline"). At 50 ms and half the load it keeps
	// 0.45 busy. The controller settles near 8 msg/s per sender.
	full.Period = 50 * time.Millisecond
	full.InitialRate = 8
	full.OfferedRate = 200
	full.PayloadBytes = 200
	full.Compression = "flate"
	full.Extensions = true
	full.Loss = 0.05
	full.SuspicionRounds = 50

	paper := Workload{
		Name:             "sim_paper",
		Why:              "the paper's section-4 setting in the simulator: same gossip/core state machines with no codec, socket, goroutine or timer; deterministic per seed",
		Sim:              true,
		N:                60,
		Fanout:           4,
		Period:           5 * time.Second,
		MaxAge:           10,
		Buffer:           60,
		Adaptive:         true,
		OfferedRate:      60,
		PayloadBytes:     16,
		Warmup:           150 * time.Second,
		VirtualPerSecond: 500 * time.Second,
	}
	return []Workload{steady, overload, full, paper}
}

// ByName finds one of the four workloads.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Reduced returns the workload shrunk to n members for the smoke tests;
// everything that defines which layers it stresses stays.
func (w Workload) Reduced(n int) Workload {
	w.N = n
	if w.Fanout >= n {
		w.Fanout = n - 1
	}
	if w.Sim {
		w.Warmup = 10 * w.Period
		w.OfferedRate = w.OfferedRate * float64(n) / 60
	} else {
		w.Warmup = 300 * time.Millisecond
		w.OfferedRate /= 4
	}
	w.MinAtomicity = 0
	w.SetupTrials = 1
	return w
}

// Threshold is how many members must deliver an event for it to count
// as atomically delivered: at least 95% of the group.
func (w Workload) Threshold() int {
	return (95*w.N + 99) / 100
}
