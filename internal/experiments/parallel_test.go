package experiments

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withParallelism runs fn under the given pool bound, restoring the
// previous bound afterwards.
func withParallelism(n int, fn func()) {
	prev := Parallelism()
	SetParallelism(n)
	defer SetParallelism(prev)
	fn()
}

// sweepConfig is small enough for a sub-second point but large enough
// that a multi-point sweep has real work to spread across cores.
func sweepConfig() Config {
	cfg := smallConfig()
	cfg.Warmup = 30 * time.Second
	cfg.Duration = 90 * time.Second
	return cfg
}

// TestParallelSweepBitIdentical pins the engine's core guarantee: a
// sweep run on the worker pool produces byte-identical output to the
// sequential engine — same rows, same rendered tables, to the last
// bit. Every (config, seed) run is deterministically seeded and folded
// in input order, so parallelism may only change wall-clock time. The
// inputs cover the three sweep shapes: a flat list of points (figure
// 2), paired off/on arms (recovery) and the lockstep bisection, one
// sweep per step (figure 4).
func TestParallelSweepBitIdentical(t *testing.T) {
	sweeps := []struct {
		name   string
		run    func() (any, error)
		render func(w *bytes.Buffer, rows any)
	}{
		{"figure 2", func() (any, error) {
			return RunFigure2(sweepConfig(), []float64{2, 4, 6, 8}, 3)
		}, func(w *bytes.Buffer, rows any) { RenderFigure2(w, rows.([]Figure2Row)) }},
		{"recovery", func() (any, error) {
			cfg := recoveryTestBase()
			cfg.Warmup, cfg.Duration = sweepConfig().Warmup, sweepConfig().Duration
			return RunRecovery(cfg, []float64{0.1, 0.3}, 2)
		}, func(w *bytes.Buffer, rows any) { RenderRecovery(w, rows.([]RecoveryRow)) }},
		{"figure 4", func() (any, error) {
			return RunFigure4(sweepConfig(), []int{10, 20}, 95, 2)
		}, func(w *bytes.Buffer, rows any) { RenderFigure4(w, rows.([]Figure4Row)) }},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			var seqRows, parRows any
			withParallelism(1, func() {
				rows, err := sw.run()
				if err != nil {
					t.Fatalf("sequential sweep: %v", err)
				}
				seqRows = rows
			})
			withParallelism(8, func() {
				rows, err := sw.run()
				if err != nil {
					t.Fatalf("parallel sweep: %v", err)
				}
				parRows = rows
			})
			if !reflect.DeepEqual(seqRows, parRows) {
				t.Fatalf("parallel rows diverge from sequential:\nseq: %+v\npar: %+v", seqRows, parRows)
			}
			var seqOut, parOut bytes.Buffer
			sw.render(&seqOut, seqRows)
			sw.render(&parOut, parRows)
			if !bytes.Equal(seqOut.Bytes(), parOut.Bytes()) {
				t.Fatalf("rendered tables diverge:\nseq:\n%s\npar:\n%s", seqOut.String(), parOut.String())
			}
		})
	}
}

// TestSweepNamesFailingConfig: a sweep whose second config is invalid
// returns that config's error under the figure's label, at any
// parallelism.
func TestSweepNamesFailingConfig(t *testing.T) {
	for _, par := range []int{1, 8} {
		withParallelism(par, func() {
			_, err := RunFigure2(sweepConfig(), []float64{2, math.NaN(), 4}, 2)
			if err == nil || !strings.Contains(err.Error(), "figure 2") ||
				!strings.Contains(err.Error(), "offered rate") {
				t.Fatalf("parallelism %d: got %v, want an error naming figure 2 and the offered rate", par, err)
			}
		})
	}
}

// TestParallelSeedsBitIdentical covers a one-config sweep: seed
// replications of one point, pooled and averaged.
func TestParallelSeedsBitIdentical(t *testing.T) {
	var seq, par RunResult
	withParallelism(1, func() {
		res, err := RunSeeds(sweepConfig(), 4)
		if err != nil {
			t.Fatal(err)
		}
		seq = res
	})
	withParallelism(4, func() {
		res, err := RunSeeds(sweepConfig(), 4)
		if err != nil {
			t.Fatal(err)
		}
		par = res
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel RunSeeds diverges from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestRunSeedsAveragesRoundToNearest pins the pooled Messages average:
// across 3 seeds the per-seed counts do not generally divide evenly,
// and the average must round to nearest instead of truncating.
func TestRunSeedsAveragesRoundToNearest(t *testing.T) {
	cfg := sweepConfig()
	const seeds = 3
	perSeed := make([]RunResult, seeds)
	for s := 0; s < seeds; s++ {
		c := cfg
		c.Seed = cfg.Seed + int64(s)
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		perSeed[s] = res
	}
	avg, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}

	sum := 0
	var meanRecv, atom float64
	for _, res := range perSeed {
		sum += res.Summary.Messages
		meanRecv += res.Summary.MeanReceiversPct
		atom += res.Summary.AtomicityPct
	}
	wantMessages := (sum + seeds/2) / seeds
	if avg.Summary.Messages != wantMessages {
		t.Fatalf("Messages = %d, want round-to-nearest %d (sum %d over %d seeds)",
			avg.Summary.Messages, wantMessages, sum, seeds)
	}
	if got, want := avg.Summary.MeanReceiversPct, meanRecv/seeds; got != want {
		t.Fatalf("MeanReceiversPct = %v, want %v", got, want)
	}
	if got, want := avg.Summary.AtomicityPct, atom/seeds; got != want {
		t.Fatalf("AtomicityPct = %v, want %v", got, want)
	}
}

// BenchmarkSweepSequential and BenchmarkSweepParallel time the same
// 4-point × 3-seed figure sweep on one worker versus all cores; their
// ns/op ratio is the sweep engine's wall-clock speedup on this machine.
func BenchmarkSweepSequential(b *testing.B) {
	benchmarkSweep(b, 1)
}

func BenchmarkSweepParallel(b *testing.B) {
	benchmarkSweep(b, runtime.NumCPU())
}

func benchmarkSweep(b *testing.B, par int) {
	rates := []float64{2, 4, 6, 8}
	withParallelism(par, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunFigure2(sweepConfig(), rates, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParallelSweepSpeedup is the opt-in wall-clock acceptance check:
// on a machine with at least 4 cores, the pooled sweep must beat the
// sequential engine by at least 1.5x. Wall-clock assertions are
// load-sensitive, so the test only runs when GOSSIP_PERF=1.
func TestParallelSweepSpeedup(t *testing.T) {
	if os.Getenv("GOSSIP_PERF") != "1" {
		t.Skip("set GOSSIP_PERF=1 to run the wall-clock speedup assertion")
	}
	cores := runtime.NumCPU()
	if cores < 4 {
		t.Skipf("need at least 4 cores, have %d", cores)
	}
	cfg := sweepConfig()
	cfg.N = 40
	rates := []float64{2, 3, 4, 5, 6, 7, 8, 9}
	const seeds = 2

	measure := func(par int) time.Duration {
		var elapsed time.Duration
		withParallelism(par, func() {
			start := time.Now()
			if _, err := RunFigure2(cfg, rates, seeds); err != nil {
				t.Fatal(err)
			}
			elapsed = time.Since(start)
		})
		return elapsed
	}
	measure(1) // warm caches so the timed passes compare fairly
	seq := measure(1)
	par := measure(cores)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(%d) %v, speedup %.2fx", seq, cores, par, speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel sweep speedup %.2fx < 1.5x (sequential %v, parallel %v)", speedup, seq, par)
	}
}
