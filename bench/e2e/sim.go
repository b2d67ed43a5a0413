package e2e

import (
	"fmt"
	"math"
	"runtime"
	"time"

	ag "adaptivegossip"
)

func (w Workload) simConfig(seed int64, measured time.Duration) ag.SimConfig {
	cfg := ag.DefaultSimConfig()
	cfg.N = w.N
	cfg.Fanout = w.Fanout
	cfg.Period = w.Period
	cfg.MaxAge = w.MaxAge
	cfg.Buffer = w.Buffer
	cfg.OfferedRate = w.OfferedRate
	cfg.Poisson = true
	cfg.PayloadSize = w.PayloadBytes
	cfg.Adaptive = w.Adaptive
	cfg.Warmup = w.Warmup
	cfg.Duration = measured
	cfg.Seed = seed
	return cfg
}

// SimCounts are the deterministic outcome of a sim_paper run; the same
// (seed, seconds) must always give the same counts.
type SimCounts struct {
	Messages   int64
	Deliveries int64
	Atomic     int64
}

// SimParts is how many consecutive Simulate calls a sim run is made of.
// Each is a slice for the cost metrics in the sense of cpuSlices: with
// twelve of about a second, the cheapest sixth is two parts
// that a noisy neighbour's bursts left alone.
const SimParts = 12

// simSetUp times one minimal simulation: the set-up a user of Simulate
// pays before the first event is delivered everywhere.
func simSetUp(w Workload, seed uint64) (time.Duration, error) {
	cfg := w.simConfig(int64(seed), time.Duration(w.MaxAge)*w.Period)
	cfg.Warmup = 0
	cfg.Drain = w.Period
	begin := time.Now()
	_, err := ag.Simulate(cfg)
	return time.Since(begin), err
}

// RunSim runs the simulator workload: SimParts consecutive Simulate
// calls that together measure seconds x VirtualPerSecond of virtual
// time. Simulate generates its own Poisson load from the seed it is
// given, so here (and only here) the seed reaches the program under
// test, as SimConfig.Seed; each part gets its own derived from seed.
func RunSim(w Workload, seed uint64, seconds float64) (*Result, SimCounts, error) {
	var counts SimCounts
	measured := time.Duration(seconds * float64(w.VirtualPerSecond) / SimParts)
	if measured < 10*w.Period {
		measured = 10 * w.Period
	}
	res := &Result{Workload: w.Name}

	var (
		cpu, rate, p50, p99 []float64
		wall, cpuTotal      time.Duration
		admitRatio          float64
		minBuff             = math.MaxInt
		allowed             float64
		setups              []float64
		mallocs, allocBytes uint64
	)
	for k := 0; k < SimParts; k++ {
		// One set-up trial before every part spreads the trials over
		// the whole run, so that one burst of a noisy neighbour cannot
		// colour them all.
		setup, err := simSetUp(w, seed)
		if err != nil {
			return nil, counts, err
		}
		setups = append(setups, setup.Seconds())

		cfg := w.simConfig(int64(seed)*SimParts+int64(k), measured)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0, begin := CPUTime(), time.Now()
		out, err := ag.Simulate(cfg)
		if err != nil {
			return nil, counts, err
		}
		took, cpuTook := time.Since(begin), CPUTime()-cpu0
		runtime.ReadMemStats(&after)
		wall += took
		cpuTotal += cpuTook
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc

		msgs := int64(out.Summary.Messages)
		// MeanReceiversPct is an exact integer sum divided by n x msgs.
		deliveries := int64(math.Round(out.Summary.MeanReceiversPct / 100 * float64(w.N) * float64(msgs)))
		atomic := int64(math.Round(out.Summary.AtomicityPct / 100 * float64(msgs)))
		counts.Messages += msgs
		counts.Deliveries += deliveries
		counts.Atomic += atomic
		if deliveries > 0 {
			cpu = append(cpu, float64(cpuTook.Microseconds())/float64(deliveries))
			rate = append(rate, float64(deliveries)/took.Seconds())
		}
		// The simulator's latency is virtual time, kept in a
		// power-of-two histogram over the whole run.
		p50 = append(p50, out.Latency.Quantile(0.50)/1e3)
		p99 = append(p99, out.Latency.Quantile(0.99)/1e3)
		admitRatio += out.InputRate / out.OfferedRate / SimParts
		allowed = out.AllowedRate
		minBuff = min(minBuff, out.MinBuffFinal)
		if out.FalseConfirms != 0 {
			res.violate("simulator reports %d false confirms", out.FalseConfirms)
		}
	}
	if counts.Messages == 0 || counts.Deliveries == 0 {
		return nil, counts, fmt.Errorf("sim: nothing was admitted or delivered")
	}

	virtual := (measured * SimParts).Seconds()
	d := float64(counts.Deliveries)
	res.Deliveries = counts.Deliveries
	res.OpsAttempted = counts.Messages * int64(w.N)
	res.OpsUndelivered = res.OpsAttempted - counts.Deliveries
	// A simulator set-up is 70 ms of pure computation, as exposed to
	// the host's noise as the parts are, so it is read the same way.
	res.e2e("setup_s", "s", Cheapest(setups))
	res.e2e("goodput_eps", "events/s", float64(counts.Atomic)/virtual)
	res.e2e("delivery_ratio", "ratio", d/float64(res.OpsAttempted))
	res.e2e("atomicity", "ratio", float64(counts.Atomic)/float64(counts.Messages))
	res.E2E = append(res.E2E,
		Metric{"latency_p50_ms", "ms", Median(p50), int(counts.Deliveries)},
		Metric{"latency_p99_ms", "ms", Median(p99), int(counts.Deliveries)})
	res.SliceCPU = cpu
	res.MeanCPU = float64(cpuTotal.Microseconds()) / d
	res.e2e("cpu_us_per_delivery", "us", Cheapest(cpu))
	res.e2e("allocs_per_delivery", "count", float64(mallocs)/d)
	res.e2e("alloc_bytes_per_delivery", "bytes", float64(allocBytes)/d)
	res.e2e("peak_rss_mb", "MiB", PeakRSSMiB())
	// A rate is the mirror image of a cost: the fastest parts are the
	// ones the host left alone.
	for i := range rate {
		rate[i] = 1 / rate[i]
	}
	res.e2e("sim_deliveries_per_s", "deliveries/s", 1/Cheapest(rate))

	res.layer("bench.latency_samples", "count", d)
	res.layer("core.admit_ratio", "ratio", admitRatio)
	res.layer("core.allowed_rate_sum", "events/s", allowed)
	res.layer("core.minbuff_estimate_min", "events", float64(minBuff))
	res.layer("experiments.run_wall_s", "s", wall.Seconds())
	return res, counts, nil
}
