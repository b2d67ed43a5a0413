// Package ratelimit implements the token-bucket input-rate bound of
// Figure 3 of "Adaptive Gossip-Based Broadcast" (Rodrigues et al.,
// DSN 2003). The adaptive mechanism of internal/core adjusts the
// bucket's refill rate at runtime; the bucket's average occupancy
// (avgTokens in the paper) doubles as the allowance-usage signal.
package ratelimit

import (
	"fmt"
	"time"
)

// Bucket is a token bucket with a continuously accrued refill.
//
// The paper restores one token every 1000/rate milliseconds; continuous
// accrual at `rate` tokens per second is the fluid limit of that rule
// and avoids quantization artifacts when the rate is retuned midway
// through a refill interval.
//
// Bucket is not safe for concurrent use.
type Bucket struct {
	max    float64
	tokens float64
	rate   float64 // tokens per second
	last   time.Time
}

// NewBucket returns a full bucket holding max tokens that refills at
// rate tokens per second starting from now.
func NewBucket(max, rate float64, now time.Time) (*Bucket, error) {
	if max <= 0 {
		return nil, fmt.Errorf("ratelimit: max must be positive, got %v", max)
	}
	if rate < 0 {
		return nil, fmt.Errorf("ratelimit: rate must be non-negative, got %v", rate)
	}
	return &Bucket{max: max, tokens: max, rate: rate, last: now}, nil
}

func (b *Bucket) advance(now time.Time) {
	dt := now.Sub(b.last)
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens += b.rate * dt.Seconds()
	if b.tokens > b.max {
		b.tokens = b.max
	}
}

// TryTake consumes one token if available and reports whether it did.
func (b *Bucket) TryTake(now time.Time) bool {
	b.advance(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reports the current token count after accruing refill up to
// now.
func (b *Bucket) Tokens(now time.Time) float64 {
	b.advance(now)
	return b.tokens
}

// Rate reports the refill rate in tokens per second.
func (b *Bucket) Rate() float64 { return b.rate }

// SetRate retunes the refill rate, first crediting refill accrued at
// the old rate up to now.
func (b *Bucket) SetRate(rate float64, now time.Time) error {
	if rate < 0 {
		return fmt.Errorf("ratelimit: rate must be non-negative, got %v", rate)
	}
	b.advance(now)
	b.rate = rate
	return nil
}

// Max reports the bucket capacity.
func (b *Bucket) Max() float64 { return b.max }

// SetMax changes the bucket capacity, clamping stored tokens.
func (b *Bucket) SetMax(max float64, now time.Time) error {
	if max <= 0 {
		return fmt.Errorf("ratelimit: max must be positive, got %v", max)
	}
	b.advance(now)
	b.max = max
	if b.tokens > max {
		b.tokens = max
	}
	return nil
}
