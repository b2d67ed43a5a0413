package experiments

import (
	"sync"
	"testing"
	"time"
)

func TestGaugeMeterMeans(t *testing.T) {
	g := newGaugeMeter(testEpoch, testEpoch.Add(3*time.Second), time.Second, 2)
	g.Observe(testEpoch, 2)
	g.Observe(testEpoch.Add(100*time.Millisecond), 4)
	g.Observe(testEpoch.Add(1100*time.Millisecond), 10)
	g.Observe(testEpoch.Add(3500*time.Millisecond), 99) // past the end: no bucket
	mean, ok := g.MeanWindow(testEpoch, testEpoch.Add(time.Second))
	if !ok || mean != 6 {
		t.Fatalf("window mean = %v ok=%v, want 6 (3 scaled by 2)", mean, ok)
	}
	if _, ok := g.MeanWindow(testEpoch.Add(2*time.Second), testEpoch.Add(3*time.Second)); ok {
		t.Fatal("empty window reported samples")
	}
	series := g.Series()
	if len(series) != 3 {
		t.Fatalf("series len %d", len(series))
	}
	if series[0].Mean != 6 || series[0].N != 2 {
		t.Fatalf("bucket 0 %+v", series[0])
	}
	if series[1].Mean != 20 || series[1].N != 1 || !series[1].Start.Equal(testEpoch.Add(time.Second)) {
		t.Fatalf("bucket 1 %+v", series[1])
	}
	if series[2].N != 0 {
		t.Fatalf("bucket 2 %+v", series[2])
	}
}

func TestGaugeMeterEmpty(t *testing.T) {
	g := newGaugeMeter(testEpoch, testEpoch.Add(time.Hour), time.Minute, 1)
	if _, ok := g.MeanWindow(testEpoch, testEpoch.Add(time.Hour)); ok {
		t.Fatal("empty meter reported samples")
	}
	for _, p := range g.Series() {
		if p.N != 0 || p.Mean != 0 {
			t.Fatalf("empty meter has bucket %+v", p)
		}
	}
}

func TestMetersConcurrent(t *testing.T) {
	g := newGaugeMeter(testEpoch, testEpoch.Add(time.Second), time.Second, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Observe(testEpoch, 1)
			}
		}()
	}
	wg.Wait()
	if series := g.Series(); len(series) != 1 || series[0].N != 4000 || series[0].Mean != 1 {
		t.Fatalf("series %+v, want one bucket of 4000 samples", series)
	}
}
