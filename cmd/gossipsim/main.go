// Command gossipsim regenerates the evaluation figures of "Adaptive
// Gossip-Based Broadcast" (DSN 2003). Each figure prints as an aligned
// text table shaped like the paper's plot.
//
// Usage:
//
//	gossipsim -figure all            # every figure below (minutes)
//	gossipsim -figure 2              # reliability vs input rate
//	gossipsim -figure 4              # max input rate vs buffer (+T1 critical age)
//	gossipsim -figure 6              # offered/allowed/maximum rates
//	gossipsim -figure 7              # input/output rates and dropped ages
//	gossipsim -figure 8              # % receivers and atomicity
//	gossipsim -figure 9              # dynamic buffers (simulation)
//	gossipsim -figure 9rt            # dynamic buffers (real-time prototype)
//	gossipsim -figure ablations      # A1–A4 design-choice studies
//	gossipsim -figure recovery       # delivery vs loss, anti-entropy off/on
//	gossipsim -figure churn          # delivery and view accuracy vs churn
//	                                 # rate, failure detection off/on
//	gossipsim -figure healthdigest   # health-digest convergence vs group
//	                                 # size and digests per message
//	gossipsim -figure scale          # n=1k/5k/10k uniform vs proximity-
//	                                 # biased sampling over WAN regions
//	gossipsim -figure 2 -fast        # reduced duration for a quick look
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"adaptivegossip/internal/experiments"
	"adaptivegossip/internal/observe"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "all", "2|4|6|7|8|9|9rt|t1|ablations|recovery|churn|healthdigest|scale|all")
		seed     = fs.Int64("seed", 1, "base random seed")
		seeds    = fs.Int("seeds", 1, "seeds to average per data point")
		n        = fs.Int("n", 60, "group size")
		fast     = fs.Bool("fast", false, "shorter windows (quick look, noisier)")
		scale    = fs.Float64("rtscale", 100, "real-time speedup for -figure 9rt")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"max simulation runs in flight (1 = sequential; output is identical at any value)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		metricsOut = fs.String("metrics-out", "",
			"write per-figure delivery-latency and hop distributions (percentiles + buckets) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	collected = nil
	experiments.SetParallelism(*parallel)
	if *metricsOut != "" {
		defer func() {
			if err := writeMetrics(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "gossipsim: metrics-out:", err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gossipsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gossipsim: memprofile:", err)
			}
		}()
	}

	base := experiments.DefaultConfig()
	base.N = *n
	base.Seed = *seed
	if *fast {
		base.Warmup = 100 * time.Second
		base.Duration = 200 * time.Second
	}

	buffers := []int{30, 45, 60, 75, 90, 105, 120, 135, 150, 165, 180}
	if *fast {
		buffers = []int{30, 60, 90, 120, 150, 180}
	}

	started := time.Now()
	switch *figure {
	case "2":
		return figure2(base, *seeds)
	case "4", "t1":
		_, err := figure4(base, buffers, *seeds)
		return err
	case "6":
		return figure6(base, buffers, *seeds)
	case "7", "8":
		return figures78(base, buffers, *seeds, *figure)
	case "9":
		return figure9(base, *seeds)
	case "9rt":
		return figure9rt(base, *seeds, *scale)
	case "ablations":
		return ablations(base, *seeds)
	case "recovery":
		return recoverySweep(base, *seeds)
	case "churn":
		return churnSweep(base, *seeds)
	case "healthdigest":
		return healthdigestSweep(*fast, *seed)
	case "scale":
		return scaleSweep(*fast, *seed)
	case "all":
		if err := figure2(base, *seeds); err != nil {
			return err
		}
		fig4, err := figure4(base, buffers, *seeds)
		if err != nil {
			return err
		}
		if err := figure6WithRows(base, buffers, fig4, *seeds); err != nil {
			return err
		}
		if err := figures78(base, buffers, *seeds, "7+8"); err != nil {
			return err
		}
		if err := figure9WithFit(base, fig4); err != nil {
			return err
		}
		if err := figure9rtWithFit(base, fig4, *scale); err != nil {
			return err
		}
		if err := ablations(base, *seeds); err != nil {
			return err
		}
		if err := recoverySweep(base, *seeds); err != nil {
			return err
		}
		if err := churnSweep(base, *seeds); err != nil {
			return err
		}
		if err := healthdigestSweep(*fast, *seed); err != nil {
			return err
		}
		if err := scaleSweep(*fast, *seed); err != nil {
			return err
		}
		fmt.Printf("\n# total wall time: %v\n", time.Since(started).Round(time.Second))
		return nil
	default:
		return fmt.Errorf("unknown figure %q", *figure)
	}
}

// metricsEntry is one figure series' distribution digest in the
// -metrics-out JSON file. Latency values are microseconds.
type metricsEntry struct {
	Figure  string                          `json:"figure"`
	Series  string                          `json:"series,omitempty"`
	Latency experiments.DistributionSummary `json:"delivery_latency_us"`
	Hops    experiments.DistributionSummary `json:"hops"`
}

// collected accumulates -metrics-out entries as figures run.
var collected []metricsEntry

func recordMetrics(figure, series string, latency, hops observe.HistogramSnapshot) {
	if latency.Count == 0 && hops.Count == 0 {
		return
	}
	collected = append(collected, metricsEntry{
		Figure:  figure,
		Series:  series,
		Latency: experiments.Summarize(latency),
		Hops:    experiments.Summarize(hops),
	})
}

func writeMetrics(path string) error {
	data, err := json.MarshalIndent(collected, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func figure2(base experiments.Config, seeds int) error {
	rows, err := experiments.RunFigure2(base, []float64{10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60}, seeds)
	if err != nil {
		return err
	}
	lat, hops := experiments.Figure2Distributions(rows)
	recordMetrics("2", "lpbcast", lat, hops)
	experiments.RenderFigure2(os.Stdout, rows)
	fmt.Println()
	return nil
}

func figure4(base experiments.Config, buffers []int, seeds int) ([]experiments.Figure4Row, error) {
	rows, err := experiments.RunFigure4(base, buffers, 95, seeds)
	if err != nil {
		return nil, err
	}
	experiments.RenderFigure4(os.Stdout, rows)
	fmt.Println()
	return rows, nil
}

func figure6(base experiments.Config, buffers []int, seeds int) error {
	fig4, err := experiments.RunFigure4(base, buffers, 95, seeds)
	if err != nil {
		return err
	}
	return figure6WithRows(base, buffers, fig4, seeds)
}

func figure6WithRows(base experiments.Config, buffers []int, fig4 []experiments.Figure4Row, seeds int) error {
	rows, err := experiments.RunFigure6(base, buffers, fig4, seeds)
	if err != nil {
		return err
	}
	lat, hops := experiments.Figure6Distributions(rows)
	recordMetrics("6", "adaptive", lat, hops)
	experiments.RenderFigure6(os.Stdout, rows)
	fmt.Println()
	return nil
}

func figures78(base experiments.Config, buffers []int, seeds int, which string) error {
	rows7, rows8, err := experiments.RunFigures78(base, buffers, seeds)
	if err != nil {
		return err
	}
	lpLat, lpHops, adLat, adHops := experiments.Figure7Distributions(rows7)
	recordMetrics("7+8", "lpbcast", lpLat, lpHops)
	recordMetrics("7+8", "adaptive", adLat, adHops)
	if which == "7" || which == "7+8" {
		experiments.RenderFigure7(os.Stdout, rows7)
		fmt.Println()
	}
	if which == "8" || which == "7+8" {
		experiments.RenderFigure8(os.Stdout, rows8)
		fmt.Println()
	}
	return nil
}

func figure9(base experiments.Config, seeds int) error {
	fig4, err := experiments.RunFigure4(base, []int{45, 60, 90}, 95, seeds)
	if err != nil {
		return err
	}
	return figure9WithFit(base, fig4)
}

func figure9WithFit(base experiments.Config, fig4 []experiments.Figure4Row) error {
	cfg := experiments.DefaultFigure9Config(base)
	cfg.IdealFor = experiments.Figure4Fit(fig4)
	res, err := experiments.RunFigure9Sim(cfg)
	if err != nil {
		return err
	}
	recordMetrics("9", "adaptive", res.Adaptive.Latency, res.Adaptive.Hops)
	recordMetrics("9", "lpbcast", res.Baseline.Latency, res.Baseline.Hops)
	experiments.RenderFigure9(os.Stdout, res)
	fmt.Println()
	return nil
}

func figure9rt(base experiments.Config, seeds int, scale float64) error {
	fig4, err := experiments.RunFigure4(base, []int{45, 60, 90}, 95, seeds)
	if err != nil {
		return err
	}
	return figure9rtWithFit(base, fig4, scale)
}

func figure9rtWithFit(base experiments.Config, fig4 []experiments.Figure4Row, scale float64) error {
	cfg := experiments.DefaultFigure9Config(base)
	cfg.IdealFor = experiments.Figure4Fit(fig4)
	fmt.Printf("# Figure 9 (real-time prototype run, %d nodes over loopback UDP, scale ×%.0f)\n", base.N, scale)
	res, err := experiments.RunFigure9Runtime(cfg, scale)
	if err != nil {
		return err
	}
	experiments.RenderFigure9(os.Stdout, res)
	fmt.Println()
	return nil
}

func recoverySweep(base experiments.Config, seeds int) error {
	losses := []float64{0, 0.05, 0.10, 0.20, 0.30}
	rows, err := experiments.RunRecovery(experiments.DefaultRecoveryConfig(base), losses, seeds)
	if err != nil {
		return err
	}
	experiments.RenderRecovery(os.Stdout, rows)
	fmt.Println()
	return nil
}

func churnSweep(base experiments.Config, seeds int) error {
	rates := []float64{1, 2, 4, 8}
	rows, err := experiments.RunChurn(experiments.DefaultChurnConfig(base), rates, seeds)
	if err != nil {
		return err
	}
	experiments.RenderChurn(os.Stdout, rows)
	fmt.Println()
	return nil
}

// healthdigestSweep measures how fast gossip-disseminated health
// digests converge to full cluster coverage (every node holding a
// digest of every other), across group sizes and piggyback budgets.
func healthdigestSweep(fast bool, seed int64) error {
	type point struct {
		n, dpm int
	}
	grid := []point{
		{60, 4}, {60, 16}, {60, 64},
		{250, 4}, {250, 16}, {250, 64},
		{1000, 16}, {1000, 64},
	}
	maxRounds := 300
	if fast {
		grid = []point{{60, 2}, {60, 4}, {60, 16}}
		maxRounds = 200
	}
	const fanout = 4
	fmt.Println("Health-digest convergence: rounds until every node holds a digest")
	fmt.Printf("of every member (fanout %d, push gossip, one self digest plus\n", fanout)
	fmt.Println("relayed digests per message up to the budget).")
	fmt.Println()
	fmt.Printf("%8s %12s %14s %12s %12s\n", "nodes", "digests/msg", "rounds-full", "mean@5", "mean@10")
	for _, p := range grid {
		res, err := experiments.RunConvergence(p.n, fanout, p.dpm, maxRounds, seed)
		if err != nil {
			return err
		}
		coverageAt := func(round int) string {
			for _, tr := range res.Trace {
				if tr.Round == round {
					return fmt.Sprintf("%.3f", tr.MeanCoverage)
				}
			}
			return "1.000" // converged (trace stops) before this round
		}
		roundsFull := fmt.Sprintf("%d", res.RoundsToFull)
		if res.RoundsToFull == 0 {
			roundsFull = fmt.Sprintf(">%d", maxRounds)
		}
		fmt.Printf("%8d %12d %14s %12s %12s\n",
			p.n, p.dpm, roundsFull, coverageAt(5), coverageAt(10))
	}
	fmt.Println()
	return nil
}

// scaleSweep runs the large-n scale figure: 1k/5k/10k-node groups over
// WAN regions, uniform vs proximity-biased peer sampling. -fast trims
// the grid to {1k, 10k} and shortens the drain for the CI smoke budget.
// Each cell's wall time and simulated deliveries per wall second go to
// stderr, so the table on stdout is a pure function of the seed.
func scaleSweep(fast bool, seed int64) error {
	cfg := experiments.DefaultScaleConfig()
	cfg.Base.Seed = seed
	if fast {
		cfg.Sizes = []int{1000, 10000}
		cfg.Base.Drain = 10 * time.Second
	}
	rows, err := experiments.RunScale(cfg)
	if err != nil {
		return err
	}
	experiments.RenderScale(os.Stdout, cfg, rows)
	fmt.Println()
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "# scale n=%d %s: wall %v, %.0f deliveries/s\n",
			r.N, r.Mode(), r.Wall.Round(10*time.Millisecond), r.DeliveriesPerSec)
	}
	return nil
}

func ablations(base experiments.Config, seeds int) error {
	rows, err := experiments.RunAblations(base, seeds)
	if err != nil {
		return err
	}
	experiments.RenderAblations(os.Stdout, rows)
	fmt.Println()
	return nil
}
