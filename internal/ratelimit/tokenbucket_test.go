package ratelimit

import (
	"testing"
	"time"
)

var t0 = time.Unix(0, 0)

func newBucket(t *testing.T, max, rate float64) *Bucket {
	t.Helper()
	b, err := NewBucket(max, rate, t0)
	if err != nil {
		t.Fatalf("NewBucket: %v", err)
	}
	return b
}

func TestNewBucketValidation(t *testing.T) {
	if _, err := NewBucket(0, 1, t0); err == nil {
		t.Fatal("max=0: want error")
	}
	if _, err := NewBucket(-1, 1, t0); err == nil {
		t.Fatal("max<0: want error")
	}
	if _, err := NewBucket(5, -1, t0); err == nil {
		t.Fatal("rate<0: want error")
	}
}

func TestBucketStartsFull(t *testing.T) {
	b := newBucket(t, 3, 1)
	for i := 0; i < 3; i++ {
		if !b.TryTake(t0) {
			t.Fatalf("take %d failed on full bucket", i)
		}
	}
	if b.TryTake(t0) {
		t.Fatal("take succeeded on empty bucket")
	}
}

func TestBucketRefill(t *testing.T) {
	b := newBucket(t, 5, 2) // 2 tokens/s
	for i := 0; i < 5; i++ {
		b.TryTake(t0)
	}
	if b.TryTake(t0.Add(400 * time.Millisecond)) {
		t.Fatal("0.8 tokens should not allow a take")
	}
	if !b.TryTake(t0.Add(600 * time.Millisecond)) {
		t.Fatal("1.2 tokens should allow a take")
	}
	// Refill caps at max.
	if got := b.Tokens(t0.Add(time.Hour)); got != 5 {
		t.Fatalf("tokens after long idle = %v, want cap 5", got)
	}
}

func TestBucketClockGoingBackwardsIsIgnored(t *testing.T) {
	b := newBucket(t, 2, 1)
	b.TryTake(t0.Add(time.Second))
	before := b.Tokens(t0.Add(time.Second))
	if got := b.Tokens(t0); got != before {
		t.Fatalf("tokens changed on clock rewind: %v -> %v", before, got)
	}
}

func TestBucketSetRate(t *testing.T) {
	b := newBucket(t, 10, 1)
	for i := 0; i < 10; i++ {
		b.TryTake(t0)
	}
	// Accrue 2s at rate 1, then switch to rate 4.
	if err := b.SetRate(4, t0.Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	// 2 (old rate) + 4×1s (new rate) = 6 tokens at t=3s.
	if got := b.Tokens(t0.Add(3 * time.Second)); got < 5.99 || got > 6.01 {
		t.Fatalf("tokens = %v, want 6", got)
	}
	if err := b.SetRate(-1, t0); err == nil {
		t.Fatal("negative rate accepted")
	}
	if b.Rate() != 4 {
		t.Fatalf("rate = %v, want 4", b.Rate())
	}
}

func TestBucketSetMax(t *testing.T) {
	b := newBucket(t, 10, 0)
	if err := b.SetMax(3, t0); err != nil {
		t.Fatal(err)
	}
	if got := b.Tokens(t0); got != 3 {
		t.Fatalf("tokens = %v, want clamp to 3", got)
	}
	if err := b.SetMax(0, t0); err == nil {
		t.Fatal("max=0 accepted")
	}
	if b.Max() != 3 {
		t.Fatalf("max = %v", b.Max())
	}
}

// TestBucketConservation: over any schedule of takes, the number of
// successful takes never exceeds initial + rate×elapsed (no token is
// minted from nothing).
func TestBucketConservation(t *testing.T) {
	const (
		max  = 4.0
		rate = 7.0
	)
	b := newBucket(t, max, rate)
	takes := 0
	now := t0
	for i := 0; i < 10000; i++ {
		now = now.Add(time.Duration(i%13) * time.Millisecond)
		if b.TryTake(now) {
			takes++
		}
	}
	elapsed := now.Sub(t0).Seconds()
	budget := max + rate*elapsed
	if float64(takes) > budget+1e-6 {
		t.Fatalf("takes %d exceed token budget %v", takes, budget)
	}
	// And the bucket was not pathologically stingy: at least the refill
	// from full seconds must have been usable.
	if float64(takes) < rate*elapsed-max-1 {
		t.Fatalf("takes %d far below budget %v", takes, budget)
	}
}

// BenchmarkTokenBucket measures the admission fast path.
func BenchmarkTokenBucket(b *testing.B) {
	bucket, err := NewBucket(5, 1e9, time.Unix(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		bucket.TryTake(now)
	}
}
