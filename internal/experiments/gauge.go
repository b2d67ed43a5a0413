package experiments

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

// gaugeMeter averages sampled values into time buckets from the run's
// epoch to its end, and reports each mean times scale: the aggregate
// allowed rate of Fig. 9(a) is a sender's mean allowed rate times the
// sender count. Samples past the end fall in no bucket.
type gaugeMeter struct {
	mu      sync.Mutex
	epoch   time.Time
	bucket  time.Duration
	scale   float64
	buckets []gaugeBucket
}

type gaugeBucket struct {
	sum float64
	n   int
}

func newGaugeMeter(epoch, end time.Time, bucket time.Duration, scale float64) *gaugeMeter {
	return &gaugeMeter{
		epoch:   epoch,
		bucket:  bucket,
		scale:   scale,
		buckets: make([]gaugeBucket, end.Sub(epoch)/bucket),
	}
}

// Observe records one sample at time now.
func (g *gaugeMeter) Observe(now time.Time, v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := uint(now.Sub(g.epoch) / g.bucket); i < uint(len(g.buckets)) {
		g.buckets[i].sum += v
		g.buckets[i].n++
	}
}

// MeanWindow reports the scaled sample mean over [from, to), and
// whether any samples fell in the window.
func (g *gaugeMeter) MeanWindow(from, to time.Time) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sum float64
	var n int
	for _, b := range g.buckets[from.Sub(g.epoch)/g.bucket : to.Sub(g.epoch)/g.bucket] {
		sum += b.sum
		n += b.n
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n) * g.scale, true
}

// Series returns the scaled per-bucket means from the epoch to the end.
// Buckets with no samples carry N == 0.
func (g *gaugeMeter) Series() []GaugePoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]GaugePoint, len(g.buckets))
	for i, b := range g.buckets {
		out[i] = GaugePoint{Start: g.epoch.Add(time.Duration(i) * g.bucket), N: b.n}
		if b.n > 0 {
			out[i].Mean = b.sum / float64(b.n) * g.scale
		}
	}
	return out
}
