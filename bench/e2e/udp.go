package e2e

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	ag "adaptivegossip"
)

// SubWindows is how many consecutive equal parts the measured window is
// cut into for the latency metrics, each of which is the median of its
// per-part percentiles. With nine, a stall of the host that lasts a few
// seconds moves a minority of the parts and not the median.
const SubWindows = 9

// cpuSlices is how many equal slices the window is cut into for
// cpu_us_per_delivery: one per second. The metric is the mean of the
// cheapest sixth of the slices (Cheapest), not their median, because on
// a shared host the noise is one-sided: a neighbour's burst can only
// make a slice dearer, bursts last from a second to a minute, and the
// slices no burst touched are the ones that measure the program. A real
// regression makes every slice dearer, the cheapest ones included.
func cpuSlices(window time.Duration) int {
	return max(3, int(window/time.Second))
}

// snapshot is the resource and counter state at one instant.
type snapshot struct {
	at      time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	stats   ag.Stats
	udp     ag.UDPTransportStats
	// throttled sums the members' refused publishes; minBuff is the
	// smallest of their min-buffer estimates.
	throttled uint64
	minBuff   int
}

// CPUTime is the process's user plus system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// PeakRSSMiB is the process's high-water resident set.
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (w Workload) config() ag.Config {
	cfg := ag.Config{
		Fanout:         w.Fanout,
		Period:         w.Period,
		BufferCapacity: w.Buffer,
		MaxAge:         w.MaxAge,
	}
	if w.Adaptive {
		d := ag.DefaultConfig()
		cfg.Adaptive = true
		cfg.Adaptation = d.Adaptation
		cfg.Adaptation.InitialRate = w.InitialRate
	}
	cfg.Transport.Compression = w.Compression
	if w.Extensions {
		cfg.Recovery.Enabled = true
		cfg.Failure.Enabled = true
		cfg.Failure.SuspicionTimeout = w.SuspicionRounds
		cfg.Observability.HealthDigests = true
	}
	return cfg
}

// udpGroup is one set-up cluster with the fabric the benchmark owns.
type udpGroup struct {
	fabric  *ag.UDPTransport
	cluster *ag.Cluster
	cancel  context.CancelFunc
}

func (g *udpGroup) close() {
	g.cancel()
	g.cluster.Close()
}

// setUp builds fabric and cluster, starts them and waits until one
// probe event has been delivered by every member: the time a user waits
// before the group is usable. probe numbers the probes across trials.
func setUp(w Workload, rec *recorder, probe *int) (*udpGroup, time.Duration, error) {
	begin := time.Now()
	var opts []ag.TransportOption
	if w.Loss > 0 {
		opts = append(opts, ag.WithLoss(w.Loss))
	}
	fabric, err := ag.NewUDPTransport(opts...)
	if err != nil {
		return nil, 0, err
	}
	cluster, err := ag.NewCluster(w.N, w.config(), ag.WithTransport(fabric), ag.WithDeliver(rec.deliver))
	if err != nil {
		return nil, 0, err
	}
	rec.bind(cluster.Nodes())
	ctx, cancel := context.WithCancel(context.Background())
	g := &udpGroup{fabric: fabric, cluster: cluster, cancel: cancel}
	if err := cluster.Start(ctx); err != nil {
		g.close()
		return nil, 0, err
	}
	if w.ShrinkTo > 0 {
		if err := cluster.SetBufferCapacity(0, w.ShrinkTo); err != nil {
			g.close()
			return nil, 0, err
		}
	}
	// Under injected loss one probe may miss a member, so a fresh one
	// follows every few periods until some probe reaches everybody.
	retry := time.NewTicker(5 * w.Period)
	defer retry.Stop()
	deadline := time.After(10 * time.Second)
	for {
		if *probe < maxProbes {
			cluster.Publish(1, probePayload(*probe, w.PayloadBytes))
			*probe++
		}
		select {
		case <-rec.allSeen:
			return g, time.Since(begin), nil
		case <-retry.C:
		case <-deadline:
			g.close()
			return nil, 0, fmt.Errorf("set-up: no probe reached all %d members within 10 s", w.N)
		}
	}
}

func takeSnapshot(g *udpGroup, clk clock, full bool) snapshot {
	s := snapshot{at: clk.Now(), cpu: CPUTime()}
	if !full {
		return s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	s.stats = g.cluster.Stats()
	s.udp = g.fabric.Stats()
	s.minBuff = math.MaxInt
	for i := 0; i < g.cluster.Len(); i++ {
		if snap, err := g.cluster.Snapshot(i); err == nil {
			s.throttled += snap.Adaptive.Throttled
			s.minBuff = min(s.minBuff, snap.MinBuff)
		}
	}
	return s
}

// RunUDP runs one real loopback-UDP workload for window of measured
// time and returns its metrics. All traffic crosses the host's loopback
// interface.
func RunUDP(w Workload, seed uint64, window time.Duration) (*Result, error) {
	sched := Generate(w, seed, window)
	rec := newRecorder(w.N, sched, time.Now())

	// Set-up, several times; keep the last group.
	var group *udpGroup
	setups := make([]float64, 0, w.SetupTrials)
	probe := 0
	for trial := 0; trial < w.SetupTrials; trial++ {
		if group != nil {
			group.close()
		}
		g, took, err := setUp(w, rec, &probe)
		if err != nil {
			return nil, err
		}
		group = g
		setups = append(setups, took.Seconds())
	}

	// Warm-up and measured window, one open-loop generator goroutine.
	nSlices := cpuSlices(window)
	marks := make([]time.Duration, nSlices+1)
	for k := range marks {
		marks[k] = sched.WindowStart + time.Duration(k)*window/time.Duration(nSlices)
	}
	snaps := make([]snapshot, len(marks))
	clk := wallClock{start: time.Now()}
	schedBase := int64(clk.start.Sub(rec.base))
	log := drive(clk, sched, group.cluster.Publish, marks, func(k int) {
		snaps[k] = takeSnapshot(group, clk, k == 0 || k == nSlices)
	})

	// Drain: events born at the end of the window get their full
	// lifetime before anything is counted.
	time.Sleep(time.Duration(w.MaxAge+2) * w.Period)
	final := takeSnapshot(group, clk, true)
	group.close() // waits for the member goroutines: rec.at is now quiescent

	res := &Result{Workload: w.Name}
	res.e2e("setup_s", "s", Median(setups))
	analyse(res, w, sched, rec, log, snaps, schedBase)

	// Counter deltas over the window.
	delta := func(first, last uint64) float64 { return float64(last - first) }
	a, b := snaps[0], snaps[nSlices]
	d := float64(res.Deliveries)
	if d > 0 {
		res.e2e("wire_bytes_per_delivery", "bytes", delta(a.udp.SentBytes, b.udp.SentBytes)/d)
		res.e2e("allocs_per_delivery", "count", delta(a.mallocs, b.mallocs)/d)
		res.e2e("alloc_bytes_per_delivery", "bytes", delta(a.bytes, b.bytes)/d)
		res.layer("udp.datagrams_per_delivery", "count", delta(a.udp.Sent, b.udp.Sent)/d)
	}
	res.e2e("peak_rss_mb", "MiB", PeakRSSMiB())

	res.layer("facade.stream_dropped", "count", delta(a.stats.StreamDropped, b.stats.StreamDropped))
	res.layer("core.throttled", "count", delta(a.throttled, b.throttled))
	res.layer("core.allowed_rate_sum", "events/s", b.stats.SumAllowedRate)
	res.layer("core.minbuff_estimate_min", "events", float64(final.minBuff))
	sent := delta(a.stats.MessagesSent, b.stats.MessagesSent)
	res.layer("gossip.messages_sent", "count", sent)
	res.layer("gossip.dropped_capacity", "count", delta(a.stats.DroppedCapacity, b.stats.DroppedCapacity))
	res.layer("gossip.dropped_expired", "count", delta(a.stats.DroppedExpired, b.stats.DroppedExpired))
	res.layer("recovery.events_recovered", "count", delta(a.stats.EventsRecovered, b.stats.EventsRecovered))
	res.layer("failure.probes_sent", "count", delta(a.stats.ProbesSent, b.stats.ProbesSent))
	// Nobody crashes, so every confirm of the whole run is false.
	res.layer("failure.false_confirms", "count", float64(final.stats.Confirms))
	res.layer("health.digests_sent", "count", delta(a.stats.HealthDigestsSent, b.stats.HealthDigestsSent))
	if post := delta(a.udp.PostCompressionBytes, b.udp.PostCompressionBytes); post > 0 {
		res.layer("compress.ratio", "ratio", delta(a.udp.PreCompressionBytes, b.udp.PreCompressionBytes)/post)
	}
	res.layer("udp.split_chunks", "count", delta(a.udp.SplitChunks, b.udp.SplitChunks))
	res.layer("udp.recv_queue_drops", "count", delta(a.udp.RecvQueueDrops, b.udp.RecvQueueDrops))
	res.layer("udp.send_errors", "count", delta(a.udp.SendErrors, b.udp.SendErrors))
	res.layer("udp.decode_errors", "count", delta(a.udp.DecodeErrors, b.udp.DecodeErrors))
	// Rounds run over rounds due: every member sends Fanout messages
	// per round.
	due := float64(w.N*w.Fanout) * (b.at - a.at).Seconds() / w.Period.Seconds()
	res.layer("runtime.tick_slip_ratio", "ratio", sent/due)

	if final.stats.Confirms != 0 {
		res.violate("failure.false_confirms = %d: a live member was declared crashed", final.stats.Confirms)
	}
	return res, nil
}

// analyse turns the recorder's delivery instants into the delivery,
// latency and per-delivery CPU metrics and runs the delivery oracle.
func analyse(res *Result, w Workload, sched *Schedule, rec *recorder, log publishLog, snaps []snapshot, schedBase int64) {
	n := w.N
	need := w.Threshold()
	windowSecs := (sched.WindowEnd - sched.WindowStart).Seconds()
	sub := (sched.WindowEnd - sched.WindowStart) / SubWindows

	var (
		offered, admitted, atomic, delivered int64
		refusedDelivered                     int64
		lat                                  [SubWindows][]int64
		atomicLat                            [SubWindows][]int64
		times                                = make([]int64, 0, n)
	)
	for i, ev := range sched.Events {
		slots := rec.at[i*n : (i+1)*n]
		inWindow := ev.Due >= sched.WindowStart && ev.Due < sched.WindowEnd
		if !log.admitted[i] {
			for _, at := range slots {
				if at != 0 {
					refusedDelivered++
				}
			}
			if inWindow {
				offered++
			}
			continue
		}
		if !inWindow {
			continue
		}
		offered++
		admitted++
		k := min(int((ev.Due-sched.WindowStart)/sub), SubWindows-1)
		due := schedBase + int64(ev.Due)
		times = times[:0]
		for _, at := range slots {
			if at != 0 {
				times = append(times, at-due)
			}
		}
		delivered += int64(len(times))
		lat[k] = append(lat[k], times...)
		if len(times) >= need {
			atomic++
			slices.Sort(times)
			atomicLat[k] = append(atomicLat[k], times[need-1])
		}
	}

	// Deliveries by the instant they happened, for the costs that are
	// measured by the clock.
	inSlice := make([]int64, len(snaps)-1)
	slice := (sched.WindowEnd - sched.WindowStart) / time.Duration(len(inSlice))
	w0 := schedBase + int64(sched.WindowStart)
	for _, at := range rec.at {
		if at == 0 || at < w0 {
			continue
		}
		if k := int((at - w0) / int64(slice)); k < len(inSlice) {
			inSlice[k]++
			res.Deliveries++
		}
	}

	duplicate, corrupt, unknown := rec.totals()
	res.OpsAttempted = admitted * int64(n)
	res.OpsUndelivered = res.OpsAttempted - delivered
	res.OpsFailed = duplicate + corrupt + unknown + refusedDelivered
	if admitted == 0 {
		res.violate("no publish was admitted in the window")
		return
	}
	res.e2e("goodput_eps", "events/s", float64(atomic)/windowSecs)
	res.e2e("delivery_ratio", "ratio", float64(delivered)/float64(res.OpsAttempted))
	atomicity := float64(atomic) / float64(admitted)
	res.e2e("atomicity", "ratio", atomicity)

	// A part with too few samples for a percentile gives no reading; the
	// metric is the median of the parts that gave one.
	percentiles := func(prefix string, parts [SubWindows][]int64) (samples int) {
		for k := range parts {
			slices.Sort(parts[k])
			samples += len(parts[k])
		}
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
			var vals []float64
			count := 0
			for k := range parts {
				if v, ok := Percentile(parts[k], q.q); ok {
					vals = append(vals, float64(v)/1e6)
					count += len(parts[k])
				}
			}
			if len(vals) > 0 {
				res.E2E = append(res.E2E, Metric{prefix + q.suffix, "ms", Median(vals), count})
			}
		}
		return samples
	}
	samples := percentiles("latency_", lat)
	percentiles("atomic_latency_", atomicLat)

	for k, n := range inSlice {
		if n > 0 {
			res.SliceCPU = append(res.SliceCPU, float64((snaps[k+1].cpu-snaps[k].cpu).Microseconds())/float64(n))
		}
	}
	res.e2e("cpu_us_per_delivery", "us", Cheapest(res.SliceCPU))
	if res.Deliveries > 0 {
		res.MeanCPU = float64((snaps[len(snaps)-1].cpu - snaps[0].cpu).Microseconds()) / float64(res.Deliveries)
	}

	// How late the open loop ran and what the Publish hand-off cost,
	// over the window's publishes.
	var lags, calls []int64
	for i, ev := range sched.Events {
		if ev.Due >= sched.WindowStart && ev.Due < sched.WindowEnd {
			lags = append(lags, int64(log.lag[i]))
			calls = append(calls, int64(log.call[i]))
		}
	}
	slices.Sort(lags)
	slices.Sort(calls)
	if v, ok := Percentile(lags, 0.99); ok {
		res.layer("bench.generator_lag_p99_ms", "ms", float64(v)/1e6)
	}
	res.layer("bench.latency_samples", "count", float64(samples))
	if v, ok := Percentile(calls, 0.50); ok {
		res.layer("facade.publish_call_us_p50", "us", float64(v)/1e3)
	}
	if v, ok := Percentile(calls, 0.99); ok {
		res.layer("facade.publish_call_us_p99", "us", float64(v)/1e3)
	}
	res.layer("core.admit_ratio", "ratio", float64(admitted)/float64(offered))

	if duplicate != 0 {
		res.violate("%d duplicate deliveries: exactly-once per member is broken", duplicate)
	}
	if corrupt != 0 {
		res.violate("%d deliveries with a payload that differs from what was published", corrupt)
	}
	if unknown != 0 {
		res.violate("%d deliveries of events nobody published", unknown)
	}
	if refusedDelivered != 0 {
		res.violate("%d deliveries of publishes that admission control refused", refusedDelivered)
	}
	if w.MinAtomicity > 0 && atomicity < w.MinAtomicity {
		res.violate("atomicity %.4f is below the workload's floor %.2f", atomicity, w.MinAtomicity)
	}
}
