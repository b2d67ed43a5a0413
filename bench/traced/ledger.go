package traced

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"adaptivegossip/bench/e2e"
)

// Row is one line of the layer table: a layer's self time per delivery
// in the traced run.
type Row struct {
	Layer string
	Micro float64
	Note  string
}

// Ledger is what the traced run of one workload produced.
type Ledger struct {
	// Metrics are the per-layer readings that need tracing.
	Metrics []e2e.Metric
	// Table is the layer table; Sum its total, Untraced the untraced
	// run's CPU per delivery over its whole window (the mean, host noise
	// included, as the traced totals are) and Residual their difference:
	// what cannot be attributed from outside (scheduling, timers,
	// channel hand-offs, netpoll, GC, generator and recorder).
	Table    []Row
	Sum      float64
	Untraced float64
	Residual float64
	// SpanCounts is how many spans of each name were recorded; it
	// repeats exactly for a seed.
	SpanCounts map[string]int
	SpanFile   string
	// Tally describes the recorded rounds: how much work the table's
	// per-delivery figures are spread over.
	Tally      string
	Violations []string
}

func (l *Ledger) metric(name, unit string, v float64) {
	l.Metrics = append(l.Metrics, e2e.Metric{Name: name, Unit: unit, Value: v})
}

// PrintTable prints the layer table, its sum, the untraced figure and
// the residual, then the span counts.
func (l *Ledger) PrintTable(w io.Writer) {
	fmt.Fprintln(w, "traced run:", l.Tally)
	fmt.Fprintln(w, "layer table (traced run, self time in us per delivery):")
	for _, r := range l.Table {
		fmt.Fprintf(w, "  %-36s %14.4f  %s\n", r.Layer, r.Micro, r.Note)
	}
	fmt.Fprintf(w, "  %-36s %14.4f\n", "sum of layers", l.Sum)
	fmt.Fprintf(w, "  %-36s %14.4f  (untraced run, tracing off, whole-window mean)\n", "untraced cpu us per delivery", l.Untraced)
	fmt.Fprintf(w, "  %-36s %14.4f  (not attributable from outside: scheduling, timers, hand-offs, netpoll, GC, generator)\n", "residual", l.Residual)
	names := make([]string, 0, len(l.SpanCounts))
	for name := range l.SpanCounts {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%d", name, l.SpanCounts[name])
	}
	fmt.Fprintf(w, "span counts:%s\n", b.String())
	fmt.Fprintf(w, "span file: %s\n", l.SpanFile)
}

// Run is the traced run of one workload: the same seed and generated
// schedule as the untraced run, driven in lockstep, then the runner
// probe and (for the simulator workload) the two sim probes. The spans
// go to outDir/trace-<workload>.json. untracedCPU is the untraced run's
// whole-window CPU per delivery, which the residual is taken against.
func Run(w e2e.Workload, seed uint64, seconds, untracedCPU float64, outDir string) (*Ledger, error) {
	overhead := SpanOverhead()
	window := time.Duration(seconds * float64(time.Second))
	if w.Sim {
		window = time.Duration(seconds * float64(w.VirtualPerSecond))
	}
	window = min(window, maxTracedRounds*w.Period)
	sched := e2e.Generate(w, seed, window)
	warmRounds := int(sched.WindowStart / w.Period)
	rounds := int(sched.WindowEnd / w.Period)

	tr := NewTracer()
	d, err := newDriver(w, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()

	// The driver goroutine keeps one OS thread to itself, so that
	// thread's CPU time is exactly the driver's: spans are wall time and
	// would otherwise count every preemption as work.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var cpu0, thread0 time.Duration
	next := 0
	for r := 0; r < rounds; r++ {
		if r == warmRounds {
			tr.Record(true)
			cpu0, thread0 = e2e.CPUTime(), threadCPUTime()
		}
		end := time.Duration(r+1) * w.Period
		first := next
		for next < len(sched.Events) && sched.Events[next].Due < end {
			next++
		}
		if err := d.runRound(r, sched.Events[first:next]); err != nil {
			return nil, err
		}
	}
	processCPU, driverCPU := e2e.CPUTime()-cpu0, threadCPUTime()-thread0

	l := &Ledger{Untraced: untracedCPU}
	if d.c.deliveries == 0 {
		return nil, fmt.Errorf("traced run of %s delivered nothing", w.Name)
	}
	l.metric("trace.span_overhead_ns", "ns", overhead)
	d.account(l, processCPU, driverCPU)
	if err := d.allocationPass(l); err != nil {
		return nil, err
	}
	if err := d.runnerProbe(l); err != nil {
		return nil, err
	}
	if w.Sim {
		if len(d.captured) == 0 {
			return nil, fmt.Errorf("traced run of %s captured no message for the sim probes", w.Name)
		}
		step, sendDeliver, err := simProbes(d.names, w.Fanout, d.captured[0])
		if err != nil {
			return nil, err
		}
		l.metric("sim.scheduler.step_ns", "ns", step)
		l.metric("sim.network.send_deliver_ns", "ns", sendDeliver)
	}

	l.SpanCounts = map[string]int{}
	for name, t := range SelfTimes(tr.Spans()) {
		l.SpanCounts[name] = t.Count
	}
	l.SpanFile, err = tr.Write(outDir, w.Name, seed, overhead)
	return l, err
}

// threadCPUTime is the calling OS thread's user plus system CPU time.
func threadCPUTime() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// account turns the spans and tallies into the traced per-layer
// metrics and the layer table. processCPU and driverCPU are the CPU
// time of the whole process and of the driver's thread over the
// recorded rounds.
func (d *driver) account(l *Ledger, processCPU, driverCPU time.Duration) {
	spans := d.tr.Spans()
	t := SelfTimes(spans)
	// Spans measure wall time; the driver thread's CPU time says how
	// much of that was work. Table rows are span self times scaled by
	// that share, so they add up to CPU the process really used.
	busy := t["round"].Total - t["wait"].Total
	scale := 1.0
	if busy > 0 && driverCPU < busy {
		scale = float64(driverCPU) / float64(busy)
	}
	us := func(v time.Duration) float64 { return scale * float64(v.Nanoseconds()) / 1e3 }
	per := func(v time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v.Nanoseconds()) / float64(n)
	}
	count := func(name string) int64 { return int64(t[name].Count) }
	c := d.c
	deliveries := float64(c.deliveries)
	l.Tally = fmt.Sprintf("rounds=%d publishes=%d admitted=%d deliveries=%d round_messages=%d datagrams=%d false_confirms=%d; driver spans %.0f ms wall, driver thread %.0f ms CPU (rows scaled by %.3f), process %.0f ms CPU",
		c.memberRounds/int64(d.w.N), c.publishes, c.admitted, c.deliveries, c.roundMsgs, c.datagrams, c.falseConfirms,
		busy.Seconds()*1e3, driverCPU.Seconds()*1e3, scale, processCPU.Seconds()*1e3)

	l.metric("core.publish_ns_per_call", "ns", per(t["core.publish"].Total, count("core.publish")))
	l.metric("core.tick_us_per_round", "us", per(t["core.tick"].Total, count("core.tick"))/1e3)
	l.metric("core.receive_us_per_msg", "us", per(t["core.receive"].Total, count("core.receive"))/1e3)
	l.metric("core.receive_ns_per_event", "ns", per(t["core.receive"].Total, c.recvEvents))
	if c.roundMsgs > 0 {
		l.metric("gossip.events_per_msg", "count", float64(c.roundEvents)/float64(c.roundMsgs))
	}
	if c.recvEvents > 0 {
		l.metric("gossip.useful_event_ratio", "ratio", float64(c.remoteDeliveries)/float64(c.recvEvents))
	}
	l.metric("membership.sample_ns_per_round", "ns", per(t["membership.sample"].Total, count("membership.sample")))

	rows := []Row{
		{"core.publish", us(t["core.publish"].Self) / deliveries, "AdaptiveNode.Publish: token bucket, buffer insert, local delivery"},
		{"core.tick", us(t["core.tick"].Self) / deliveries, "AdaptiveNode.Tick less the peer draw: rate control, ageing, round assembly, extensions"},
		{"membership.sample", us(t["membership.sample"].Self) / deliveries, "Registry.AppendPeers"},
	}
	if !d.w.Sim {
		// Compress spans under a send are the real frames'; the rest
		// belong to the shadow encodes.
		var sendCompress time.Duration
		for _, s := range spans {
			if s.Name == "compress" && s.Parent >= 0 && strings.HasPrefix(spans[s.Parent].Name, "udp.send") {
				sendCompress += time.Duration(s.End - s.Start)
			}
		}
		sendSelf := t["udp.send_many"].Self + t["udp.send_reply"].Self
		encode := t["codec.encode"].Self
		write := max(sendSelf-encode, 0)
		readSide := max(processCPU-driverCPU, 0)

		l.metric("codec.encode_us_per_msg", "us", per(t["codec.encode"].Total, count("codec.encode"))/1e3)
		l.metric("codec.decode_us_per_msg", "us", per(t["codec.decode"].Total, count("codec.decode"))/1e3)
		if c.encodedEvents > 0 {
			l.metric("codec.bytes_per_event", "bytes", float64(c.encodedBytes)/float64(c.encodedEvents))
		}
		if d.comp != nil && d.comp.rawBytes > 0 {
			l.metric("compress.ns_per_raw_byte", "ns", per(t["compress"].Total, d.comp.rawBytes))
			l.metric("decompress.ns_per_raw_byte", "ns", per(t["decompress"].Total, c.decompRaw))
		}
		l.metric("udp.send_many_us_per_round", "us", per(t["udp.send_many"].Total, count("udp.send_many"))/1e3)
		l.metric("udp.socket_write_us_per_datagram", "us", per(write, c.datagrams)/1e3)
		slices.Sort(d.recvPath)
		if v, ok := e2e.Percentile(d.recvPath, 0.50); ok {
			l.Metrics = append(l.Metrics, e2e.Metric{Name: "udp.recv_path_us_p50", Unit: "us", Value: float64(v) / 1e3, Samples: len(d.recvPath)})
		}
		if v, ok := e2e.Percentile(d.recvPath, 0.99); ok {
			l.Metrics = append(l.Metrics, e2e.Metric{Name: "udp.recv_path_us_p99", Unit: "us", Value: float64(v) / 1e3, Samples: len(d.recvPath)})
		}
		l.metric("udp.read_side_cpu_us_per_datagram", "us", per(readSide, c.datagrams)/1e3)
		l.metric("udp.trace_lost", "count", float64(c.lost))
		if float64(c.lost) > 0.001*float64(c.datagrams) {
			l.Violations = append(l.Violations, fmt.Sprintf("traced run lost %d of %d datagrams (more than 0.1%%)", c.lost, c.datagrams))
		}

		rows = append(rows,
			Row{"codec.encode", us(encode) / deliveries, "Codec.AppendEncode of each round message (timed on a shadow pass; the same work inside SendMany)"},
			Row{"transport.compress", us(sendCompress) / deliveries, "Compressor.Compress inside SendMany"},
			Row{"udp.socket_write", us(write) / deliveries, "SendMany less encode and compress: F x sendto"},
			Row{"udp.read_side", us(readSide) / deliveries, "process CPU outside the driver goroutine: kernel receive, read loop, dispatch queue, Codec.Decode, decompress, GC workers"},
		)
	}
	rows = append(rows, Row{"core.receive", us(t["core.receive"].Self) / deliveries, "AdaptiveNode.Receive: dedup, buffer insert, delivery, extensions"})
	l.Table = rows
	for _, r := range rows {
		l.Sum += r.Micro
	}
	l.Residual = l.Untraced - l.Sum
	l.metric("trace.residual_us_per_delivery", "us", l.Residual)
}

// allocationPass measures what cannot be measured while other
// goroutines allocate: with the group idle, it decodes the frames the
// shadow pass kept and decompresses the last compressed section, and
// reads the allocator's counters around each loop.
func (d *driver) allocationPass(l *Ledger) error {
	if len(d.frames) == 0 {
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range d.frames {
		if _, err := d.codec.Decode(f); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l.metric("codec.decode_allocs_per_msg", "count", float64(after.Mallocs-before.Mallocs)/float64(len(d.frames)))
	if d.comp == nil || d.comp.lastRaw == 0 {
		return nil
	}
	const reps = 64
	d.tr.Record(false)
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := d.comp.shadowDecompress(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	d.tr.Record(true)
	l.metric("decompress.alloc_bytes_per_msg", "bytes", float64(after.TotalAlloc-before.TotalAlloc)/reps)
	return nil
}

// runnerProbe covers what lockstep cannot: the hand-off from a
// transport's handler into the node loop. One real runtime.Runner over
// the stub transport is fed the run's captured messages, paced so that
// the inbox never queues, while an extension notes when each reaches
// OnReceive.
func (d *driver) runnerProbe(l *Ledger) error {
	if len(d.captured) == 0 {
		return nil
	}
	names := d.names
	probe := &handoffProbe{arrived: make([]time.Time, len(d.captured))}
	n, err := newNode(nodeSpec{
		id:         names[0],
		gossip:     gossipParams{Fanout: d.w.Fanout, Period: d.w.Period, MaxEvents: d.w.Buffer, MaxAge: d.w.MaxAge},
		peers:      newRegistry(names),
		rng:        rand.New(rand.NewPCG(1, 1)),
		extensions: []extension{probe},
		start:      time.Now(),
	})
	if err != nil {
		return err
	}
	stub := &stubTransport{id: names[0]}
	r, err := newRunner(n, stub, max(d.w.Period, 20*time.Millisecond))
	if err != nil {
		return err
	}
	r.Start()
	fed := make([]time.Time, len(d.captured))
	for i, m := range d.captured {
		c := *m
		c.Round = uint64(i) // the probe's index; Round is diagnostic only
		fed[i] = time.Now()
		stub.feed(&c)
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	r.Stop() // waits for the loop: probe.arrived is quiescent

	var handoff []int64
	for i, at := range probe.arrived {
		if at.IsZero() {
			continue
		}
		handoff = append(handoff, int64(at.Sub(fed[i])))
		d.tr.Add(Span{Name: "runtime.handoff", Start: int64(fed[i].Sub(d.tr.base)), End: int64(at.Sub(d.tr.base)), Parent: -1, Trace: uint64(i)})
	}
	slices.Sort(handoff)
	if v, ok := e2e.Percentile(handoff, 0.50); ok {
		l.Metrics = append(l.Metrics, e2e.Metric{Name: "runtime.handoff_us_p50", Unit: "us", Value: float64(v) / 1e3, Samples: len(handoff)})
	}
	if v, ok := e2e.Percentile(handoff, 0.99); ok {
		l.Metrics = append(l.Metrics, e2e.Metric{Name: "runtime.handoff_us_p99", Unit: "us", Value: float64(v) / 1e3, Samples: len(handoff)})
	}
	l.metric("runtime.inbox_dropped", "count", float64(inboxDropped(r)))
	return nil
}
