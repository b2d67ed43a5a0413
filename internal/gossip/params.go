package gossip

import (
	"errors"
	"fmt"
	"time"
)

// Default protocol parameters. Fanout, period and the 60-node group size
// come from the paper's experimental settings (§4); MaxAge and the
// eventIds sizing are reconstructed from the paper's constraints.
const (
	DefaultFanout      = 4
	DefaultPeriod      = 5 * time.Second
	DefaultMaxEvents   = 120
	DefaultMaxAge      = 10
	DefaultIDCacheMult = 30 // MaxEventIDs = mult × MaxEvents when unset
)

// Params are the configuration parameters of the base algorithm
// (Figure 1): fanout F, gossip period T, buffer bound |events|max,
// dedup-cache bound |eventIds|max and the age purge bound k.
type Params struct {
	// Fanout is the number of random targets each round (F).
	Fanout int
	// Period is the gossip round interval (T).
	Period time.Duration
	// MaxEvents bounds the events buffer (|events|max).
	MaxEvents int
	// MaxEventIDs bounds the memory of the duplicate-suppression set
	// (|eventIds|), at most 2²⁶; zero means DefaultIDCacheMult ×
	// MaxEvents, clamped to 2²⁶. The set is per-origin replay windows,
	// exactly-once over a horizon derived from MaxAge, and MaxEventIDs is
	// not that horizon: it caps the windows at MaxEventIDs, forgetting
	// the least recently active origin past that, and an origin's window
	// at MaxEventIDs seqs (rounded up to a power of two of 64), forcing
	// its floor up past that.
	MaxEventIDs int
	// MaxAge is the age k beyond which events are purged, at most 2¹⁶.
	MaxAge int
}

// DefaultParams returns the paper's experimental configuration.
func DefaultParams() Params {
	return Params{
		Fanout:    DefaultFanout,
		Period:    DefaultPeriod,
		MaxEvents: DefaultMaxEvents,
		MaxAge:    DefaultMaxAge,
	}
}

// withDefaults returns p with zero-valued optional fields filled in.
func (p Params) withDefaults() Params {
	if p.MaxEventIDs == 0 {
		p.MaxEventIDs = min(DefaultIDCacheMult*min(p.MaxEvents, maxIDCacheCapacity), maxIDCacheCapacity)
	}
	return p
}

// Validate reports the first configuration error, if any.
func (p Params) Validate() error {
	var errs []error
	if p.Fanout <= 0 {
		errs = append(errs, fmt.Errorf("fanout must be positive, got %d", p.Fanout))
	}
	if p.Period <= 0 {
		errs = append(errs, fmt.Errorf("period must be positive, got %v", p.Period))
	}
	if p.MaxEvents <= 0 {
		errs = append(errs, fmt.Errorf("max events must be positive, got %d", p.MaxEvents))
	}
	if p.MaxEventIDs < 0 || p.MaxEventIDs > maxIDCacheCapacity {
		errs = append(errs, fmt.Errorf("max event ids must be in [0, %d], got %d", maxIDCacheCapacity, p.MaxEventIDs))
	} else if ids := p.withDefaults().MaxEventIDs; p.MaxEvents > 0 && ids < p.MaxEvents {
		errs = append(errs, fmt.Errorf("max event ids (%d) must be at least max events (%d)", ids, p.MaxEvents))
	}
	if p.MaxAge <= 0 || p.MaxAge > maxBufferAge {
		errs = append(errs, fmt.Errorf("max age must be in [1, %d], got %d", maxBufferAge, p.MaxAge))
	}
	return errors.Join(errs...)
}
