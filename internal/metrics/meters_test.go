package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestGaugeMeterMeans(t *testing.T) {
	g := NewGaugeMeter(epoch, time.Second)
	g.Observe(epoch, 2)
	g.Observe(epoch.Add(100*time.Millisecond), 4)
	g.Observe(epoch.Add(1100*time.Millisecond), 10)
	mean, ok := g.MeanWindow(epoch, epoch.Add(time.Second))
	if !ok || mean != 3 {
		t.Fatalf("window mean = %v ok=%v, want 3", mean, ok)
	}
	if _, ok := g.MeanWindow(epoch.Add(10*time.Second), epoch.Add(20*time.Second)); ok {
		t.Fatal("empty window reported samples")
	}
	series := g.Series(epoch, epoch.Add(3*time.Second))
	if len(series) != 3 {
		t.Fatalf("series len %d", len(series))
	}
	if series[0].Mean != 3 || series[0].N != 2 {
		t.Fatalf("bucket 0 %+v", series[0])
	}
	if series[1].Mean != 10 || series[1].N != 1 {
		t.Fatalf("bucket 1 %+v", series[1])
	}
	if series[2].N != 0 {
		t.Fatalf("bucket 2 %+v", series[2])
	}
}

func TestGaugeMeterEmpty(t *testing.T) {
	g := NewGaugeMeter(epoch, 0)
	if _, ok := g.MeanWindow(epoch, epoch.Add(time.Hour)); ok {
		t.Fatal("empty meter reported samples")
	}
	if g.Series(epoch, epoch) != nil {
		t.Fatal("empty series not nil")
	}
}

func TestMetersConcurrent(t *testing.T) {
	g := NewGaugeMeter(epoch, time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Observe(epoch, 1)
			}
		}()
	}
	wg.Wait()
	if series := g.Series(epoch, epoch.Add(time.Second)); len(series) != 1 || series[0].N != 4000 || series[0].Mean != 1 {
		t.Fatalf("series %+v, want one bucket of 4000 samples", series)
	}
}
