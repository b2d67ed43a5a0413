package transport

import (
	"slices"
	"sync"
)

// freeList keeps idle items for its owner to reuse: an endpoint's
// receive envelopes and send buffers, a codec's section scratch, a
// compressor's deflaters. Unlike a sync.Pool, a garbage collection does
// not empty it, so a member that has reached its working set allocates
// nothing more however often the collector runs. It is bounded twice:
// it keeps at most maxIdle idle items, and its owner hands back nothing
// over the owner's size cap, leaving either to the collector. A nil
// list keeps nothing.
type freeList[T any] struct {
	mu      sync.Mutex
	idle    []T
	maxIdle int
}

func newFreeList[T any](maxIdle int) *freeList[T] {
	l := &freeList[T]{}
	l.raise(maxIdle)
	return l
}

// raise lets the list keep n more idle items.
func (l *freeList[T]) raise(n int) {
	l.mu.Lock()
	l.maxIdle += n
	l.idle = slices.Grow(l.idle, l.maxIdle-len(l.idle))
	l.mu.Unlock()
}

// get takes an idle item, reporting false when there is none.
func (l *freeList[T]) get() (x T, ok bool) {
	if l == nil {
		return x, false
	}
	l.mu.Lock()
	if n := len(l.idle) - 1; n >= 0 {
		var zero T
		x, ok, l.idle[n] = l.idle[n], true, zero
		l.idle = l.idle[:n]
	}
	l.mu.Unlock()
	return x, ok
}

// put keeps x for reuse unless the list already holds its bound.
func (l *freeList[T]) put(x T) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.idle) < l.maxIdle {
		l.idle = append(l.idle, x)
	}
	l.mu.Unlock()
}

// endpointScratch is the receive envelopes and send buffers of the
// endpoints of one fabric, shared by all of them: bursts come at
// different times to different members, so a shared list keeps fewer
// idle envelopes than one list per endpoint would. Each endpoint
// raises the bounds by its allowance.
type endpointScratch struct {
	inbounds *freeList[*Inbound]
	sendBufs *freeList[[]byte]
}

// An endpoint's allowance of idle items: its read loop holds one
// envelope and a burst queues a few more before the member's runner
// drains them; a member's sends come from its runner, under the
// runner's lock, one at a time.
const (
	idleInboundsPerEndpoint = 4
	idleSendBufsPerEndpoint = 1
)

func newEndpointScratch() *endpointScratch {
	return &endpointScratch{inbounds: newFreeList[*Inbound](0), sendBufs: newFreeList[[]byte](0)}
}

// addEndpoint raises the bounds by one endpoint's allowance.
func (s *endpointScratch) addEndpoint() {
	s.inbounds.raise(idleInboundsPerEndpoint)
	s.sendBufs.raise(idleSendBufsPerEndpoint)
}

// maxPooledBuf caps the capacity of a send buffer or section scratch a
// list takes back. Every single-datagram encode fits well within it;
// only an owning Encode of a message far past the datagram bound grows
// a buffer beyond it, and that buffer is left to the collector.
const maxPooledBuf = 2 * maxDatagramRead

// putBuf hands b back to l unless it grew past maxPooledBuf.
func putBuf(l *freeList[[]byte], b []byte) {
	if cap(b) <= maxPooledBuf {
		l.put(b[:0])
	}
}
