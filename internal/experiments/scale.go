package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"adaptivegossip/internal/sim"
)

// ScaleConfig describes the large-n scale sweep: groups of up to 10,000+
// nodes spread over WAN regions, gossiping through lpbcast partial
// views, comparing uniform against proximity-biased peer sampling (Haas
// et al.'s topology-aware gossip probability). The paper evaluates at
// n=60–125; this sweep is the repository's extension to production
// scale. Every (size, sampling) cell is one Run of Base with N set to
// the size; the uniform arm runs with ProximityWeight 0.
type ScaleConfig struct {
	// Base is every cell's configuration; its ProximityWeight is the
	// proximity arm's same-region weight.
	Base Config
	// Sizes are the group sizes to sweep.
	Sizes []int
}

// DefaultScaleConfig is the standard sweep: 1k/5k/10k nodes over four
// regions, 2–10ms intra-region links against 60–120ms cross-region
// links, fanout 4 over 24-entry partial views, and 8 senders offering
// one message per second in all.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Base: Config{
			Fanout:      4,
			Period:      time.Second,
			MaxAge:      20,
			Buffer:      64,
			Senders:     8,
			OfferedRate: 1,
			PayloadSize: 16,
			// The warm-up lets lpbcast subscription propagation
			// symmetrize the membership graph before the window.
			Warmup:   6 * time.Second,
			Duration: 8 * time.Second,
			Seed:     1,
			Topology: sim.NewTwoTierTopology(4,
				sim.LatencyClass{Min: 2 * time.Millisecond, Max: 10 * time.Millisecond},
				sim.LatencyClass{Min: 60 * time.Millisecond, Max: 120 * time.Millisecond}),
			ViewSize:        24,
			ProximityWeight: 8,
		},
		Sizes: []int{1000, 5000, 10000},
	}
}

// ScaleRow is one (size, sampling mode) cell of the sweep.
type ScaleRow struct {
	N         int
	Proximity bool
	// CoveragePct is the mean delivery coverage over the window's
	// messages, percent.
	CoveragePct float64
	// RoundsTo99 is the mean number of gossip periods from birth until
	// 99% of the group held a window message; +Inf when any of them
	// never got there within the run.
	RoundsTo99 float64
	// BytesPerNode / CrossBytesPerNode are total and cross-region wire
	// bytes (codec-encoded sizes) divided by the group size.
	BytesPerNode      float64
	CrossBytesPerNode float64
	// CrossBytesPct is the cross-region share of wire bytes, percent.
	CrossBytesPct float64
	// LatencyP50 and LatencyP95 are delivery-latency percentiles of the
	// run's pooled histogram (RunResult.Latency).
	LatencyP50, LatencyP95 time.Duration
	// Wall is the cell's wall-clock time and DeliveriesPerSec the
	// deliveries it recorded per wall second: the simulator-throughput
	// reading, which varies with the host and is not in the table.
	Wall             time.Duration
	DeliveriesPerSec float64
}

// Mode names the sampling arm.
func (r ScaleRow) Mode() string {
	if r.Proximity {
		return "proximity"
	}
	return "uniform"
}

// RunScale executes the sweep: every size with uniform and with
// proximity-biased sampling. Cells are independent runs (all randomness
// derived from the seed by node index), so they fan out on the package
// worker pool; rows come back in input order, bit-identical to a
// sequential sweep. Like sweep, it refuses a cell that delivered an
// event twice to one member.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("experiments: scale sweep needs at least one size")
	}
	for _, n := range cfg.Sizes {
		if n < cfg.Base.Topology.Regions {
			return nil, fmt.Errorf("experiments: scale size %d too small for %d regions", n, cfg.Base.Topology.Regions)
		}
	}
	rows := make([]ScaleRow, 2*len(cfg.Sizes))
	err := forEach(len(rows), func(i int) error {
		c := cfg.Base
		c.N = cfg.Sizes[i/2]
		proximity := i%2 == 1
		if !proximity {
			c.ProximityWeight = 0
		}
		started := time.Now()
		res, err := Run(c)
		if err != nil {
			return err
		}
		rows[i] = scaleRow(res, proximity, time.Since(started))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// scaleRow reads one cell off its run.
func scaleRow(res RunResult, proximity bool, wall time.Duration) ScaleRow {
	n := float64(res.Config.N)
	st := res.Network
	total := st.IntraRegionBytes + st.CrossRegionBytes
	quantile := func(q float64) time.Duration {
		return time.Duration(res.Latency.Quantile(q) * float64(time.Microsecond))
	}
	row := ScaleRow{
		N:                 res.Config.N,
		Proximity:         proximity,
		CoveragePct:       res.Summary.MeanReceiversPct,
		RoundsTo99:        math.Inf(1),
		BytesPerNode:      float64(total) / n,
		CrossBytesPerNode: float64(st.CrossRegionBytes) / n,
		LatencyP50:        quantile(0.50),
		LatencyP95:        quantile(0.95),
		Wall:              wall,
	}
	if res.Summary.AllReached99 {
		row.RoundsTo99 = res.Summary.MeanTo99.Seconds() / res.Config.Period.Seconds()
	}
	if total > 0 {
		row.CrossBytesPct = 100 * float64(st.CrossRegionBytes) / float64(total)
	}
	if wall > 0 {
		row.DeliveriesPerSec = float64(res.Latency.Count) / wall.Seconds()
	}
	return row
}

// RenderScale prints the sweep as an aligned table.
func RenderScale(w io.Writer, cfg ScaleConfig, rows []ScaleRow) {
	base := cfg.Base
	topo := base.Topology
	fmt.Fprintf(w, "Simulator scale sweep: lpbcast over %d-entry partial views, fanout %d,\n", base.ViewSize, base.Fanout)
	fmt.Fprintf(w, "%d WAN regions", topo.Regions)
	if topo.Regions > 1 {
		intra, inter := topo.Classes[0][0], topo.Classes[0][1]
		fmt.Fprintf(w, " (intra %v-%v, inter %v-%v)", intra.Min, intra.Max, inter.Min, inter.Max)
	}
	fmt.Fprintf(w, ", %d senders offering %g msg/s in all;\n", base.Senders, base.OfferedRate)
	fmt.Fprintf(w, "messages born in the %v after a %v warm-up are measured.\n", base.Duration, base.Warmup)
	fmt.Fprintf(w, "Proximity arm: same-region peers weighted %.0fx (Haas-style topology bias).\n\n", base.ProximityWeight)
	fmt.Fprintf(w, "%7s %10s %7s %9s %11s %13s %8s %9s %9s\n",
		"n", "sampling", "cover%", "rounds99", "bytes/node", "xbytes/node", "xbytes%", "p50", "p95")
	for _, r := range rows {
		rounds := fmt.Sprintf("%.1f", r.RoundsTo99)
		if math.IsInf(r.RoundsTo99, 1) {
			drain := orDuration(base.Drain, time.Duration(base.MaxAge)*base.Period)
			rounds = fmt.Sprintf(">%.0f", drain.Seconds()/base.Period.Seconds())
		}
		fmt.Fprintf(w, "%7d %10s %7.2f %9s %11.0f %13.0f %8.1f %9s %9s\n",
			r.N, r.Mode(), r.CoveragePct, rounds, r.BytesPerNode, r.CrossBytesPerNode, r.CrossBytesPct,
			r.LatencyP50.Round(time.Millisecond), r.LatencyP95.Round(time.Millisecond))
	}
}
