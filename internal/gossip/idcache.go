package gossip

import "fmt"

// IDCache is the bounded eventIds duplicate-suppression set of Figure 1.
// When full, the oldest identifier is forgotten (FIFO), matching the
// paper's "remove oldest element from eventIds".
//
// IDCache is not safe for concurrent use.
type IDCache struct {
	capacity int
	ring     []EventID
	head     int // index of the oldest element
	size     int
	set      map[EventID]struct{}
}

// NewIDCache returns an empty cache with the given capacity.
func NewIDCache(capacity int) (*IDCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("gossip: id cache capacity must be positive, got %d", capacity)
	}
	return &IDCache{
		capacity: capacity,
		ring:     make([]EventID, capacity),
		set:      make(map[EventID]struct{}, capacity),
	}, nil
}

// Len reports the number of remembered identifiers.
func (c *IDCache) Len() int { return c.size }

// Capacity reports the maximum number of remembered identifiers.
func (c *IDCache) Capacity() int { return c.capacity }

// Contains reports whether id is remembered.
func (c *IDCache) Contains(id EventID) bool {
	_, ok := c.set[id]
	return ok
}

// Add remembers id and reports whether it was new. Adding a known id is
// a no-op returning false. When the cache is full the oldest identifier
// is evicted.
func (c *IDCache) Add(id EventID) bool {
	if _, ok := c.set[id]; ok {
		return false
	}
	if c.size == c.capacity {
		oldest := c.ring[c.head]
		delete(c.set, oldest)
		c.ring[c.head] = id
		c.head = (c.head + 1) % c.capacity
	} else {
		tail := (c.head + c.size) % c.capacity
		c.ring[tail] = id
		c.size++
	}
	c.set[id] = struct{}{}
	return true
}

// SetCapacity resizes the cache, forgetting oldest identifiers first when
// shrinking.
func (c *IDCache) SetCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("gossip: id cache capacity must be positive, got %d", capacity)
	}
	// Rebuild the ring newest-last, keeping at most the newest capacity
	// identifiers.
	keep := c.size
	if keep > capacity {
		keep = capacity
	}
	ring := make([]EventID, capacity)
	drop := c.size - keep
	for i := 0; i < drop; i++ {
		delete(c.set, c.ring[(c.head+i)%c.capacity])
	}
	for i := 0; i < keep; i++ {
		ring[i] = c.ring[(c.head+drop+i)%c.capacity]
	}
	c.ring = ring
	c.head = 0
	c.size = keep
	c.capacity = capacity
	return nil
}

// IDs returns the remembered identifiers from oldest to newest. The
// recovery subsystem builds its gossip digests from a small IDCache via
// this accessor.
func (c *IDCache) IDs() []EventID {
	return c.AppendIDs(make([]EventID, 0, c.size))
}

// AppendIDs appends the remembered identifiers, oldest to newest, to dst:
// IDs into a slice the caller reuses.
func (c *IDCache) AppendIDs(dst []EventID) []EventID {
	for i := 0; i < c.size; i++ {
		dst = append(dst, c.ring[(c.head+i)%c.capacity])
	}
	return dst
}

// oldest returns the identifiers from oldest to newest. Test helper.
func (c *IDCache) oldest() []EventID { return c.IDs() }
