package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweep engine fans independent, deterministically-seeded
// simulation runs across a bounded worker pool. Every (config, seed)
// run writes its result into its own input-order slot, and all
// aggregation walks those slots sequentially afterwards, so a parallel
// sweep is bit-identical to the sequential one — parallelism only
// changes wall-clock time, never output.
//
// The pool is one level deep. A figure builds its whole list of
// configs and hands it to sweep once (Figure 4's bisections advance in
// lockstep, one sweep per step), so no sweep starts inside another and
// each pool needs only its own Parallelism() workers: there is no
// process-wide slot budget to share and nothing that could deadlock.

// parallelism is the bound SetParallelism last set; 0 means GOMAXPROCS.
var parallelism atomic.Int64

// SetParallelism bounds the number of concurrently executing
// experiment runs. Values below 1 mean 1 (fully sequential). The
// default is GOMAXPROCS. It only affects sweeps started afterwards.
func SetParallelism(n int) {
	parallelism.Store(int64(max(n, 1)))
}

// Parallelism reports the current worker-pool bound.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) on up to Parallelism() workers, all pulling
// indices from a shared queue — so a worker finishing early immediately
// picks up the next index instead of idling behind a slow sibling.
// Each iteration owns its own output slot (closured by fn), so
// completion order does not matter. Once any iteration fails, queued
// indices are skipped (fail-fast, like the sequential loop's early
// return); the returned error is the lowest-index failure among the
// iterations that ran.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, Parallelism()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs every config in cfgs with seeds consecutive seeds (fewer
// than 1 means 1), all (config, seed) runs in one queue, and folds each
// config's runs in seed order with foldSeeds: result i belongs to
// cfgs[i]. A run that fails, such as one that delivered an event twice
// to one member, fails the sweep; the error returned is the first
// failure in config order among the runs that ran.
func sweep(cfgs []Config, seeds int) ([]RunResult, error) {
	seeds = max(seeds, 1)
	runs := make([]RunResult, len(cfgs)*seeds)
	err := forEach(len(runs), func(i int) error {
		c := cfgs[i/seeds]
		c.Seed += int64(i % seeds)
		var err error
		runs[i], err = Run(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	results := make([]RunResult, len(cfgs))
	for i := range results {
		results[i] = foldSeeds(runs[i*seeds : (i+1)*seeds])
	}
	return results, nil
}
