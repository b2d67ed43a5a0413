package hotpath

import "sync/atomic"

// Counter is the raw form the typedatomics analyzer rejects: a plain
// word driven through a sync/atomic package-level function.
type Counter struct{ n uint64 }

func (s *Counter) Inc() {
	atomic.AddUint64(&s.n, 1) // want `atomic.AddUint64 on a raw word`
}

// typedCounter is the accepted form: no diagnostic.
type typedCounter struct{ n atomic.Uint64 }

func (s *typedCounter) Inc() { s.n.Add(1) }
