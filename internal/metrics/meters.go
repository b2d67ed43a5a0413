package metrics

import (
	"sync"
	"time"
)

// GaugePoint is one bucket of an averaged gauge series.
type GaugePoint struct {
	Start time.Time
	Mean  float64
	N     int
}

// GaugeMeter averages sampled values into time buckets; used for the
// allowed-rate series of Fig. 9(a) and the dropped-age traces of
// Fig. 7(c).
type GaugeMeter struct {
	mu     sync.Mutex
	bucket time.Duration
	epoch  time.Time
	sums   map[int64]float64
	ns     map[int64]int
}

// NewGaugeMeter buckets samples at the given granularity relative to
// epoch.
func NewGaugeMeter(epoch time.Time, bucket time.Duration) *GaugeMeter {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &GaugeMeter{
		bucket: bucket,
		epoch:  epoch,
		sums:   make(map[int64]float64),
		ns:     make(map[int64]int),
	}
}

// Observe records one sample at time now.
func (g *GaugeMeter) Observe(now time.Time, v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := int64(now.Sub(g.epoch) / g.bucket)
	g.sums[i] += v
	g.ns[i]++
}

// MeanWindow reports the sample mean over [from, to), and whether any
// samples fell in the window.
func (g *GaugeMeter) MeanWindow(from, to time.Time) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lo := int64(from.Sub(g.epoch) / g.bucket)
	hi := int64(to.Sub(g.epoch) / g.bucket)
	var sum float64
	var n int
	for i := lo; i < hi; i++ {
		sum += g.sums[i]
		n += g.ns[i]
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Series returns per-bucket means over [from, to). Buckets with no
// samples carry N == 0.
func (g *GaugeMeter) Series(from, to time.Time) []GaugePoint {
	if !from.Before(to) {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	lo := int64(from.Sub(g.epoch) / g.bucket)
	hi := int64(to.Sub(g.epoch) / g.bucket)
	out := make([]GaugePoint, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p := GaugePoint{Start: g.epoch.Add(time.Duration(i) * g.bucket), N: g.ns[i]}
		if p.N > 0 {
			p.Mean = g.sums[i] / float64(p.N)
		}
		out = append(out, p)
	}
	return out
}
