package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/transport"
)

// ScaleConfig describes the large-n scale sweep: groups of up to 10,000+
// nodes spread over WAN regions, gossiping through lpbcast partial
// views, comparing uniform against proximity-biased peer sampling (Haas
// et al.'s topology-aware gossip probability). The paper evaluates at
// n=60–125; this sweep is the repository's extension to production
// scale (ROADMAP item 2).
type ScaleConfig struct {
	// Sizes are the group sizes to sweep.
	Sizes []int
	// Fanout is F, the gossip targets per round.
	Fanout int
	// Period is the gossip round interval (virtual time).
	Period time.Duration
	// Regions is the number of WAN regions; node i lives in region
	// i mod Regions.
	Regions int
	// Intra and Inter are the link latency classes within and across
	// regions.
	Intra, Inter sim.LatencyClass
	// ViewSize bounds each node's partial view (lpbcast's ℓ).
	ViewSize int
	// Contacts is how many random bootstrap contacts seed each view.
	Contacts int
	// WarmupRounds is how many gossip periods run before the publish
	// instant, letting lpbcast subscription propagation symmetrize the
	// membership graph first.
	WarmupRounds int
	// Rounds is how many gossip periods the run measures after the
	// publish instant.
	Rounds int
	// Messages is how many events are broadcast, from origins spread
	// evenly across the group.
	Messages int
	// PayloadSize is the event payload size in bytes.
	PayloadSize int
	// ProximityWeight is the same-region selection weight of the
	// proximity-biased arm (cross-region peers weigh 1).
	ProximityWeight float64
	// MaxAge is the purge bound k.
	MaxAge int
	// Buffer is |events|max at every node.
	Buffer int
	// Seed drives all randomness; every per-node stream is derived from
	// it by node index (sim.NodeRNG and friends), so results are
	// bit-identical regardless of sweep parallelism.
	Seed int64
}

// DefaultScaleConfig is the standard sweep: 1k/5k/10k nodes over four
// regions, 2–10ms intra-region links against 60–120ms cross-region
// links, fanout 4 over 24-entry partial views.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Sizes:           []int{1000, 5000, 10000},
		Fanout:          4,
		Period:          time.Second,
		Regions:         4,
		Intra:           sim.LatencyClass{Min: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Inter:           sim.LatencyClass{Min: 60 * time.Millisecond, Max: 120 * time.Millisecond},
		ViewSize:        24,
		Contacts:        8,
		WarmupRounds:    6,
		Rounds:          30,
		Messages:        8,
		PayloadSize:     16,
		ProximityWeight: 8,
		MaxAge:          20,
		Buffer:          64,
		Seed:            1,
	}
}

// Validate reports the first configuration error.
func (c ScaleConfig) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("experiments: scale sweep needs at least one size")
	}
	for _, n := range c.Sizes {
		if n < c.Regions || n < 2 {
			return fmt.Errorf("experiments: scale size %d too small for %d regions", n, c.Regions)
		}
	}
	if c.Fanout <= 0 || c.ViewSize <= 0 || c.Contacts <= 0 || c.Rounds <= 0 || c.Messages <= 0 {
		return fmt.Errorf("experiments: scale fanout/view/contacts/rounds/messages must be positive")
	}
	if c.WarmupRounds < 0 {
		return fmt.Errorf("experiments: scale warmup rounds must be non-negative")
	}
	if c.Regions <= 0 {
		return fmt.Errorf("experiments: scale needs at least 1 region, got %d", c.Regions)
	}
	if c.Period <= 0 {
		return fmt.Errorf("experiments: scale period must be positive")
	}
	if c.ProximityWeight < 1 {
		return fmt.Errorf("experiments: proximity weight %v must be >= 1", c.ProximityWeight)
	}
	return nil
}

// ScaleRow is one (size, sampling mode) cell of the sweep.
type ScaleRow struct {
	N         int
	Proximity bool
	// CoveragePct is the mean delivery coverage over events, percent.
	CoveragePct float64
	// RoundsTo99 is the mean number of gossip periods from publish
	// until 99% of the group held the event; +Inf when any event never
	// got there within the run.
	RoundsTo99 float64
	// BytesPerNode / CrossBytesPerNode are total and cross-region wire
	// bytes (codec-encoded sizes) divided by the group size.
	BytesPerNode      float64
	CrossBytesPerNode float64
	// CrossBytesPct is the cross-region share of wire bytes, percent.
	CrossBytesPct float64
	// LatencyP50 and LatencyP95 are delivery-latency percentiles over
	// every remote delivery.
	LatencyP50, LatencyP95 time.Duration
	// Events is the number of simulator events executed and EventsPerSec
	// the wall-clock execution rate — the simulator-throughput reading
	// recorded in BENCH_7.json.
	Events       uint64
	EventsPerSec float64
	Wall         time.Duration
	// DuplicateDeliveries counts repeated (event, member) deliveries.
	DuplicateDeliveries int
}

// Mode names the sampling arm.
func (r ScaleRow) Mode() string {
	if r.Proximity {
		return "proximity"
	}
	return "uniform"
}

// RunScale executes the sweep: every size with uniform and with
// proximity-biased sampling. Cells are independent simulations (all
// randomness derived from the seed by node index), so they fan out on
// the package worker pool; rows come back in input order, bit-identical
// to a sequential sweep.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rows := make([]ScaleRow, 2*len(cfg.Sizes))
	err := forEach(len(rows), func(i int) error {
		row, err := runScaleArm(cfg, cfg.Sizes[i/2], i%2 == 1)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// runScaleArm simulates one (size, mode) cell.
func runScaleArm(cfg ScaleConfig, n int, proximity bool) (ScaleRow, error) {
	sched := sim.NewScheduler(sim.Epoch)
	codec := transport.Codec{}
	network, err := sim.NewNetwork(sched, sim.NetworkRNG(cfg.Seed),
		sim.WithTopology(sim.NewTwoTierTopology(cfg.Regions, cfg.Intra, cfg.Inter)),
		sim.WithMessageSizer(codec.EncodedSize),
	)
	if err != nil {
		return ScaleRow{}, err
	}

	names := make([]gossip.NodeID, n)
	region := make(map[gossip.NodeID]int32, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%05d", i))
		region[names[i]] = int32(i % cfg.Regions)
		if err := network.SetRegion(names[i], i%cfg.Regions); err != nil {
			return ScaleRow{}, err
		}
	}

	// Delivery accounting: per-event coverage counts, which members
	// have the event, and the instant 99% of the group first held it.
	type evRecord struct {
		birth time.Time
		count int
		got   []bool
		t99   time.Duration
	}
	duplicates := 0
	records := make([]evRecord, 0, cfg.Messages)
	evIndex := make(map[gossip.EventID]int, cfg.Messages)
	need99 := (99*n + 99) / 100 // ceil(0.99 n)
	latencies := make([]time.Duration, 0, n*cfg.Messages)

	viewCfg := membership.PartialViewConfig{
		MaxView:         cfg.ViewSize,
		MaxSubs:         cfg.ViewSize,
		MaxUnsubs:       cfg.ViewSize,
		SubsPerGossip:   4,
		UnsubsPerGossip: 1,
	}
	params := gossip.Params{
		Fanout:    cfg.Fanout,
		Period:    cfg.Period,
		MaxEvents: cfg.Buffer,
		MaxAge:    cfg.MaxAge,
	}

	// The same node and the same driver as every other experiment; with
	// Adaptive off and the view as sampler and extension it is lpbcast
	// over partial views.
	nodes := make([]*core.AdaptiveNode, n)
	for i := range nodes {
		name := names[i]
		// One stream per node index drives both the protocol and the
		// view's pool sampling; the run is single-threaded, so the
		// interleaving is deterministic.
		rng := sim.NodeRNG(cfg.Seed, i)
		seeds := make([]gossip.NodeID, 0, cfg.Contacts)
		for len(seeds) < cfg.Contacts {
			c := names[rng.IntN(n)]
			if c != name {
				seeds = append(seeds, c)
			}
		}
		view, err := membership.NewPartialView(name, seeds, viewCfg, rng)
		if err != nil {
			return ScaleRow{}, err
		}
		if proximity {
			myRegion := region[name]
			view.SetSampleWeights(func(peer gossip.NodeID) float64 {
				if region[peer] == myRegion {
					return cfg.ProximityWeight
				}
				return 1
			})
		}
		nodes[i], err = core.NewAdaptiveNode(core.NodeConfig{
			ID:         name,
			Gossip:     params,
			Peers:      view,
			Extensions: []gossip.Extension{view},
			RNG:        rng,
			Start:      sim.Epoch,
			Deliver: func(ev gossip.Event) {
				idx, ok := evIndex[ev.ID]
				if !ok {
					// The origin's own delivery fires inside Publish,
					// before the event is registered; it is counted at
					// registration instead.
					return
				}
				rec := &records[idx]
				if rec.got[i] {
					duplicates++
					return
				}
				rec.got[i] = true
				rec.count++
				latencies = append(latencies, sched.Now().Sub(rec.birth))
				if rec.count == need99 {
					rec.t99 = sched.Now().Sub(rec.birth)
				}
			},
		})
		if err != nil {
			return ScaleRow{}, err
		}
	}
	for i, node := range nodes {
		phase := time.Duration(sim.PhaseRNG(cfg.Seed, i).Float64() * float64(cfg.Period))
		network.Drive(node, cfg.Period, phase)
	}

	// Publish after the warmup window, from origins spread evenly over
	// the group (and therefore over the regions).
	publishAt := sim.Epoch.Add(time.Duration(cfg.WarmupRounds) * cfg.Period)
	for j := 0; j < cfg.Messages; j++ {
		o := j * n / cfg.Messages
		sched.At(publishAt, func() {
			ev, _ := nodes[o].Publish(make([]byte, cfg.PayloadSize), sched.Now())
			evIndex[ev.ID] = len(records)
			records = append(records, evRecord{birth: sched.Now(), count: 1, got: make([]bool, n)})
			records[len(records)-1].got[o] = true
		})
	}

	started := time.Now()
	sched.RunUntil(publishAt.Add(time.Duration(cfg.Rounds)*cfg.Period + network.MaxLatency()))
	wall := time.Since(started)

	row := ScaleRow{N: n, Proximity: proximity, Wall: wall, Events: sched.Executed(), DuplicateDeliveries: duplicates}
	if wall > 0 {
		row.EventsPerSec = float64(row.Events) / wall.Seconds()
	}
	var coverage float64
	var rounds99 float64
	for _, rec := range records {
		coverage += float64(rec.count) / float64(n)
		if rec.count >= need99 && rec.t99 > 0 {
			rounds99 += rec.t99.Seconds() / cfg.Period.Seconds()
		} else {
			rounds99 = math.Inf(1)
		}
	}
	row.CoveragePct = 100 * coverage / float64(len(records))
	row.RoundsTo99 = rounds99 / float64(len(records))
	stats := network.Stats()
	total := stats.IntraRegionBytes + stats.CrossRegionBytes
	row.BytesPerNode = float64(total) / float64(n)
	row.CrossBytesPerNode = float64(stats.CrossRegionBytes) / float64(n)
	if total > 0 {
		row.CrossBytesPct = 100 * float64(stats.CrossRegionBytes) / float64(total)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		row.LatencyP50 = latencies[len(latencies)*50/100]
		row.LatencyP95 = latencies[len(latencies)*95/100]
	}
	return row, nil
}

// RenderScale prints the sweep as an aligned table.
func RenderScale(w io.Writer, cfg ScaleConfig, rows []ScaleRow) {
	fmt.Fprintf(w, "Simulator scale sweep: lpbcast over %d-entry partial views, fanout %d,\n", cfg.ViewSize, cfg.Fanout)
	fmt.Fprintf(w, "%d WAN regions (intra %v-%v, inter %v-%v), %d broadcasts per run.\n",
		cfg.Regions, cfg.Intra.Min, cfg.Intra.Max, cfg.Inter.Min, cfg.Inter.Max, cfg.Messages)
	fmt.Fprintf(w, "Proximity arm: same-region peers weighted %.0fx (Haas-style topology bias).\n\n", cfg.ProximityWeight)
	fmt.Fprintf(w, "%7s %10s %7s %9s %11s %13s %8s %9s %9s %11s %8s\n",
		"n", "sampling", "cover%", "rounds99", "bytes/node", "xbytes/node", "xbytes%", "p50", "p95", "events/s", "wall")
	for _, r := range rows {
		rounds := fmt.Sprintf("%.1f", r.RoundsTo99)
		if math.IsInf(r.RoundsTo99, 1) {
			rounds = ">" + fmt.Sprint(cfg.Rounds)
		}
		fmt.Fprintf(w, "%7d %10s %7.2f %9s %11.0f %13.0f %8.1f %9s %9s %11.0f %8s\n",
			r.N, r.Mode(), r.CoveragePct, rounds, r.BytesPerNode, r.CrossBytesPerNode, r.CrossBytesPct,
			r.LatencyP50.Round(time.Millisecond), r.LatencyP95.Round(time.Millisecond),
			r.EventsPerSec, r.Wall.Round(10*time.Millisecond))
	}
}
