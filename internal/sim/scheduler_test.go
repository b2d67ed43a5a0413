package sim

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(Epoch)
	var order []int
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.Drain(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := s.Now(); !got.Equal(Epoch.Add(3 * time.Second)) {
		t.Fatalf("now = %v", got)
	}
	if got := s.Elapsed(); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", got)
	}
}

func TestSchedulerFIFOWithinInstant(t *testing.T) {
	s := NewScheduler(Epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Drain(10)
	for i, got := range order {
		if got != i {
			t.Fatalf("same-instant order = %v", order)
		}
	}
}

func TestSchedulerPastEventsRunNow(t *testing.T) {
	s := NewScheduler(Epoch.Add(time.Minute))
	var ran []time.Duration
	s.After(-time.Hour, func() { ran = append(ran, -time.Hour) })
	s.After(0, func() { ran = append(ran, 0) })
	if !s.Step() || len(ran) != 1 || ran[0] != -time.Hour {
		t.Fatalf("past event did not run first: ran %v", ran)
	}
	if !s.Step() || len(ran) != 2 {
		t.Fatalf("zero-delay event did not run: ran %v", ran)
	}
	if !s.Now().Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("now = %v, want the start instant", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(Epoch)
	var ran []int
	s.After(1*time.Second, func() { ran = append(ran, 1) })
	s.After(5*time.Second, func() { ran = append(ran, 5) })
	s.RunUntil(Epoch.Add(2 * time.Second))
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want only the 1s event", ran)
	}
	if !s.Now().Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("now = %v, want t=2s", s.Now())
	}
	s.RunFor(10 * time.Second)
	if len(ran) != 2 {
		t.Fatalf("ran = %v", ran)
	}
	if !s.Now().Equal(Epoch.Add(12 * time.Second)) {
		t.Fatalf("now = %v, want t=12s", s.Now())
	}
}

func TestSchedulerSelfRescheduling(t *testing.T) {
	s := NewScheduler(Epoch)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(time.Second, tick)
		}
	}
	s.After(time.Second, tick)
	s.RunUntil(Epoch.Add(time.Hour))
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
}

func TestSchedulerDrainLimit(t *testing.T) {
	s := NewScheduler(Epoch)
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(0, tick)
	if ran := s.Drain(100); ran != 100 {
		t.Fatalf("Drain ran %d, want limit 100", ran)
	}
}

func TestDeriveRNGDeterministicAndSeparated(t *testing.T) {
	a1 := DeriveRNG(42, 1)
	a2 := DeriveRNG(42, 1)
	b := DeriveRNG(42, 2)
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x == y {
			same++
		}
		if x == z {
			diff++
		}
	}
	if same != 100 {
		t.Fatal("same (seed, stream) produced different sequences")
	}
	if diff > 2 {
		t.Fatalf("different streams collided %d/100 times", diff)
	}
}
