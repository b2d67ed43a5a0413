package experiments

import (
	"fmt"
	"time"
)

// RunRuntime executes the same experiment as Run — the same body, every
// schedule and every result field included — on the real-time goroutine
// runtime over loopback UDP: the "prototype implementation" half of the
// paper's evaluation. All durations in cfg are wall-clock here, so
// callers scale the paper's 5-second period down (e.g. to 50ms) to keep
// runs short; the protocol depends on rounds, not on wall seconds. Loss
// drops datagrams on send; a Topology (Regions > 0) is rejected, since
// latency injection is simulator-only. RunResult.Network stays zero: it
// counts the simulated fabric.
func RunRuntime(cfg Config) (RunResult, error) { return run(cfg, newWallWorld) }

// RunFigure9Runtime replays the dynamic-buffer scenario on the
// goroutine runtime with all durations divided by scale and all rates
// multiplied by it, preserving the round structure (e.g. scale=100
// turns the 450s/5s-period run into 4.5s/50ms).
func RunFigure9Runtime(cfg Figure9Config, scale float64) (Figure9Result, error) {
	if scale <= 0 {
		scale = 1
	}
	shrink := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / scale)
	}
	scaled := cfg
	scaled.Base.Period = shrink(cfg.Base.Period)
	scaled.Base.OfferedRate = cfg.Base.OfferedRate * scale
	scaled.ChangeAt1 = shrink(cfg.ChangeAt1)
	scaled.ChangeAt2 = shrink(cfg.ChangeAt2)
	scaled.Total = shrink(cfg.Total)

	ad, err := RunRuntime(scaled.runConfig(true))
	if err != nil {
		return Figure9Result{}, fmt.Errorf("figure 9 runtime adaptive: %w", err)
	}
	lp, err := RunRuntime(scaled.runConfig(false))
	if err != nil {
		return Figure9Result{}, fmt.Errorf("figure 9 runtime lpbcast: %w", err)
	}
	// Rescale the result back to paper time for rendering: rates ÷
	// scale, durations × scale.
	res := assembleFigure9(scaled, ad, lp)
	res.Config = cfg
	for i := range res.Points {
		res.Points[i].Start = time.Duration(float64(res.Points[i].Start) * scale)
		res.Points[i].AllowedRate /= scale
		if cfg.IdealFor != nil {
			res.Points[i].IdealRate = cfg.IdealFor(cfg.bufferAt(res.Points[i].Start))
		} else {
			res.Points[i].IdealRate = 0
		}
	}
	res.Bucket = time.Duration(float64(res.Bucket) * scale)
	return res, nil
}

func orDuration(d, fallback time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return fallback
}
