package gossip

import (
	"math/rand/v2"
	"testing"
	"time"
)

func TestDefaultParamsAreValid(t *testing.T) {
	p := DefaultParams().withDefaults()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.Fanout != 4 || p.Period != 5*time.Second || p.MaxEvents != 120 {
		t.Fatalf("defaults drifted from the paper's configuration: %+v", p)
	}
	if p.MaxEventIDs != DefaultIDCacheMult*p.MaxEvents {
		t.Fatalf("MaxEventIDs default = %d", p.MaxEventIDs)
	}
}

func TestParamsValidate(t *testing.T) {
	valid := Params{Fanout: 3, Period: time.Second, MaxEvents: 10, MaxEventIDs: 100, MaxAge: 8}
	cases := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"valid", func(p *Params) {}, true},
		{"zero fanout", func(p *Params) { p.Fanout = 0 }, false},
		{"negative fanout", func(p *Params) { p.Fanout = -1 }, false},
		{"zero period", func(p *Params) { p.Period = 0 }, false},
		{"zero max events", func(p *Params) { p.MaxEvents = 0 }, false},
		{"negative ids", func(p *Params) { p.MaxEventIDs = -1 }, false},
		{"ids below events", func(p *Params) { p.MaxEventIDs = 5 }, false},
		{"zero max age", func(p *Params) { p.MaxAge = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid
			tc.mutate(&p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

// TestParamsValidateAgreesWithNewNode holds Validate to NewNode's
// verdict at the ceilings of eventIds (2²⁶) and of the age (2¹⁶), an
// explicit bound or one derived from MaxEvents.
func TestParamsValidateAgreesWithNewNode(t *testing.T) {
	valid := Params{Fanout: 3, Period: time.Second, MaxEvents: 10, MaxAge: 8}
	cases := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"ids at the ceiling", func(p *Params) { p.MaxEventIDs = maxIDCacheCapacity }, true},
		{"ids above the ceiling", func(p *Params) { p.MaxEventIDs = maxIDCacheCapacity + 1 }, false},
		{"ids of 2^33", func(p *Params) { p.MaxEventIDs = 1 << 33 }, false},
		{"age at the ceiling", func(p *Params) { p.MaxAge = maxBufferAge }, true},
		{"age above the ceiling", func(p *Params) { p.MaxAge = maxBufferAge + 1 }, false},
		{"age of 2^17", func(p *Params) { p.MaxAge = 1 << 17 }, false},
		{"derived ids below events", func(p *Params) { p.MaxEvents = maxIDCacheCapacity + 1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := valid
			tc.mutate(&p)
			// Validate first: a bound it wrongly accepted could make
			// NewNode allocate gigabytes.
			if err := p.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate: %v, want it to accept: %v", err, tc.ok)
			}
			if _, err := NewNode("n", p, fixedPeers{"m"}, rand.New(rand.NewPCG(1, 2))); (err == nil) != tc.ok {
				t.Fatalf("NewNode: %v, want it to accept: %v", err, tc.ok)
			}
		})
	}
	// A bound derived above the ceiling is clamped to it, not rejected.
	p := valid
	p.MaxEvents = maxIDCacheCapacity/DefaultIDCacheMult + 1
	if err := p.Validate(); err != nil || p.withDefaults().MaxEventIDs != maxIDCacheCapacity {
		t.Fatalf("MaxEvents %d: Validate %v, derived MaxEventIDs %d, want nil and %d", p.MaxEvents, err, p.withDefaults().MaxEventIDs, maxIDCacheCapacity)
	}
}
