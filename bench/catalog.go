package main

import "math"

// spec describes one metric of the benchmark: its unit, which way is
// better and, for end-to-end metrics, how far it may worsen before that
// counts as a regression (Rel as a share of the baseline, Abs in the
// metric's unit; the larger allowance applies).
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Rel    float64
	Abs    float64
	// Contract marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end: the ones every workload reports and that repeat well
	// enough on a shared host for a bound of at most 25% to hold. The
	// others ride in its per_layer list, which carries no bounds.
	Contract bool
}

// endToEnd is the benchmark's 14 end-to-end metrics in report order.
//
// Most bounds are wider than the issue that defined the benchmark
// proposed. Each is at least three times the spread between the
// quartiles of ten runs on this shared two-core VM (README, "First
// baseline"), and the driver that gates later changes saw about twice
// that spread on its own host: goodput_eps 15% for 3% (the controller's
// own sawtooth moves udp_full's mean by 3%), atomicity 0.02 for 0.01
// (sim_paper's differs by 0.004 from seed to seed), the p50 latencies
// 15% for 10%, the p99 latencies 25% for 15%, the two allocation costs
// 15% for 5% (on udp_full they are a cost per datagram divided by a
// goodput that moves by 3%).
var endToEnd = []spec{
	{Name: "setup_s", Unit: "s", Better: "lower", Rel: 0.50, Abs: 0.05, Contract: true},
	{Name: "goodput_eps", Unit: "events/s", Better: "higher", Rel: 0.15, Contract: true},
	{Name: "delivery_ratio", Unit: "ratio", Better: "higher", Abs: 0.002, Contract: true},
	{Name: "atomicity", Unit: "ratio", Better: "higher", Abs: 0.02, Contract: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Rel: 0.15, Contract: true},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Rel: 0.25, Contract: true},
	{Name: "atomic_latency_p50_ms", Unit: "ms", Better: "lower", Rel: 0.15},
	{Name: "atomic_latency_p99_ms", Unit: "ms", Better: "lower", Rel: 0.25},
	// Not in the contract's bounded set: the CPU time of the same work
	// on this host spreads past the contract's cap of 25%. The driver
	// measured 22-34% between the quartiles of ten runs on every
	// workload, sim_paper's deterministic computation included; see the
	// README's "First baseline". It is reported, and a change that
	// claims it compares the two commits in alternating pairs.
	{Name: "cpu_us_per_delivery", Unit: "us", Better: "lower", Rel: 0.25},
	{Name: "wire_bytes_per_delivery", Unit: "bytes", Better: "lower", Rel: 0.03},
	{Name: "allocs_per_delivery", Unit: "count", Better: "lower", Rel: 0.15, Contract: true},
	{Name: "alloc_bytes_per_delivery", Unit: "bytes", Better: "lower", Rel: 0.15, Contract: true},
	// Not in the contract's bounded set: a high-water mark of a
	// garbage-collected heap on a shared host spread 21% between ten
	// runs of udp_full, too close to the contract's cap of 25%.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Rel: 0.15},
	{Name: "sim_deliveries_per_s", Unit: "deliveries/s", Better: "higher", Rel: 0.10},
}

// perLayer is the layer ledger in report order: one block per module of
// the repository. Counts read off the public API come from the untraced
// run, timings from the traced run.
var perLayer = []spec{
	{Name: "bench.generator_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.latency_samples", Unit: "count", Better: "higher"},
	{Name: "trace.span_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.residual_us_per_delivery", Unit: "us", Better: "lower"},

	{Name: "facade.publish_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "facade.publish_call_us_p99", Unit: "us", Better: "lower"},
	{Name: "facade.stream_dropped", Unit: "count", Better: "lower"},

	{Name: "core.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.throttled", Unit: "count", Better: "lower"},
	{Name: "core.allowed_rate_sum", Unit: "events/s", Better: "higher"},
	{Name: "core.minbuff_estimate_min", Unit: "events", Better: "lower"},
	{Name: "core.publish_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "core.tick_us_per_round", Unit: "us", Better: "lower"},
	{Name: "core.receive_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "core.receive_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "gossip.messages_sent", Unit: "count", Better: "lower"},
	{Name: "gossip.dropped_capacity", Unit: "count", Better: "lower"},
	{Name: "gossip.dropped_expired", Unit: "count", Better: "lower"},
	{Name: "gossip.events_per_msg", Unit: "count", Better: "lower"},
	{Name: "gossip.useful_event_ratio", Unit: "ratio", Better: "higher"},

	{Name: "membership.sample_ns_per_round", Unit: "ns", Better: "lower"},

	{Name: "recovery.events_recovered", Unit: "count", Better: "higher"},
	{Name: "failure.probes_sent", Unit: "count", Better: "lower"},
	{Name: "failure.false_confirms", Unit: "count", Better: "lower"},
	{Name: "health.digests_sent", Unit: "count", Better: "lower"},

	{Name: "codec.encode_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "codec.decode_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "codec.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "codec.bytes_per_event", Unit: "bytes", Better: "lower"},

	{Name: "compress.ratio", Unit: "ratio", Better: "higher"},
	{Name: "compress.ns_per_raw_byte", Unit: "ns", Better: "lower"},
	{Name: "decompress.ns_per_raw_byte", Unit: "ns", Better: "lower"},
	{Name: "decompress.alloc_bytes_per_msg", Unit: "bytes", Better: "lower"},

	{Name: "udp.send_many_us_per_round", Unit: "us", Better: "lower"},
	{Name: "udp.socket_write_us_per_datagram", Unit: "us", Better: "lower"},
	{Name: "udp.recv_path_us_p50", Unit: "us", Better: "lower"},
	{Name: "udp.recv_path_us_p99", Unit: "us", Better: "lower"},
	{Name: "udp.read_side_cpu_us_per_datagram", Unit: "us", Better: "lower"},
	{Name: "udp.datagrams_per_delivery", Unit: "count", Better: "lower"},
	{Name: "udp.split_chunks", Unit: "count", Better: "lower"},
	{Name: "udp.recv_queue_drops", Unit: "count", Better: "lower"},
	{Name: "udp.send_errors", Unit: "count", Better: "lower"},
	{Name: "udp.decode_errors", Unit: "count", Better: "lower"},
	{Name: "udp.trace_lost", Unit: "count", Better: "lower"},

	{Name: "runtime.handoff_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.handoff_us_p99", Unit: "us", Better: "lower"},
	{Name: "runtime.inbox_dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.tick_slip_ratio", Unit: "ratio", Better: "higher"},

	{Name: "experiments.run_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim.scheduler.step_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.network.send_deliver_ns", Unit: "ns", Better: "lower"},
}

// contractBound is the bound BENCHMARK.json carries for a metric: the
// contract knows only a share of the parent's median, capped at 0.25,
// so an absolute allowance is restated against the metric's scale (the
// ratios are all close to 1).
func (s spec) contractBound() float64 {
	return math.Min(0.25, math.Max(s.Rel, s.Abs))
}

// allowance is how far a metric whose baseline reads base may worsen.
func (s spec) allowance(base float64) float64 {
	return math.Max(s.Rel*math.Abs(base), s.Abs)
}
