package observe

import (
	"math"
	"sync"
	"time"
)

// TraceStage labels one transition in a rumor's lifecycle.
type TraceStage uint8

const (
	// StagePublish: the event was originated (and self-delivered) at
	// its origin node.
	StagePublish TraceStage = iota + 1
	// StageFirstSend: the origin addressed the event to gossip targets
	// for the first time.
	StageFirstSend
	// StageReceive: a node received a copy of the event (duplicate or
	// not).
	StageReceive
	// StageDeliver: a node delivered the event to the application
	// (first copy only).
	StageDeliver
	// StageDrop: a node evicted the event from its buffer.
	StageDrop
)

// String returns the stage name used in trace output.
func (s TraceStage) String() string {
	switch s {
	case StagePublish:
		return "publish"
	case StageFirstSend:
		return "first-send"
	case StageReceive:
		return "receive"
	case StageDeliver:
		return "deliver"
	case StageDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// TraceEvent is one sampled rumor-lifecycle transition. Origin and Seq
// identify the rumor (they are the two halves of its event ID); Node is
// where the transition happened; From is the sending node for
// StageReceive/StageDeliver when known (empty at the origin's own
// stages); Hop is the rumor's hop count at the transition — exact when
// the sender propagated wire trace context, otherwise the
// event's age (ages advance once per round at every holder, so the age
// approximates the hop count); Round is the observing node's gossip
// round. Reason is set for StageDrop ("capacity", "expired", "resize").
//
// TraceEvent is a plain value: building and passing one allocates
// nothing, which keeps the sampled-out hot path cheap.
type TraceEvent struct {
	Origin string
	Seq    uint64
	Stage  TraceStage
	Node   string
	From   string
	Hop    int
	Round  uint64
	Reason string
}

// Tracer observes sampled rumor-lifecycle transitions. The protocol
// hot path guards every use with a nil check — a nil Tracer is the
// zero-overhead default — and asks Sampled before building a
// TraceEvent, so unsampled rumors cost one hash per touch.
//
// Implementations must be safe for concurrent use: several node loops
// may share one Tracer.
type Tracer interface {
	// Sampled reports whether the rumor identified by (origin, seq)
	// is in the traced sample. It must be deterministic: every node
	// asking about the same rumor gets the same answer, so a sampled
	// rumor's full cross-node path is captured.
	Sampled(origin string, seq uint64) bool
	// Trace records one transition of a sampled rumor.
	Trace(e TraceEvent)
}

// TraceRecord is a recorded transition: the TraceEvent plus the
// recorder's arrival stamps (a global sequence number that orders
// records across nodes, and the wall-clock receive time).
type TraceRecord struct {
	TraceEvent
	// Index is the global arrival index of this record (monotonic
	// across all traced rumors).
	Index uint64
	// Time is the wall-clock instant the record was made.
	Time time.Time
}

// DefaultTraceCapacity is the ring capacity of a Recorder when the
// configured capacity is zero.
const DefaultTraceCapacity = 4096

// Recorder is a sampling Tracer that retains the most recent trace
// records in a fixed ring buffer. The ring is allocated once at
// construction; recording overwrites the oldest slot, so a Recorder
// never allocates after construction and is safe to leave attached to
// a production node.
type Recorder struct {
	threshold uint64 // sample iff hash(origin,seq) < threshold

	mu   sync.Mutex
	ring []TraceRecord
	next uint64 // total records ever written
}

// NewRecorder returns a Recorder sampling the given fraction of rumors
// (rate clamped to [0,1]; 0 records nothing, 1 records everything)
// with a ring of the given capacity (0 means DefaultTraceCapacity).
func NewRecorder(rate float64, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	// The sampling decision compares the top 32 bits of the rumor hash
	// against a 32-bit threshold: rate×2^32 is exactly representable
	// for every rate in [0,1), avoiding float→uint64 edge cases at the
	// extremes.
	var threshold uint64
	if rate >= 1 {
		threshold = math.MaxUint64
	} else {
		threshold = uint64(rate * float64(1<<32))
	}
	return &Recorder{
		threshold: threshold,
		ring:      make([]TraceRecord, 0, capacity),
	}
}

// hashID hashes a rumor identifier with FNV-1a, allocation-free. The
// hash only depends on (origin, seq), so every node samples the same
// rumors — the property that lets a single rumor's cross-node path be
// reassembled from per-node records.
func hashID(origin string, seq uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(origin); i++ {
		h ^= uint64(origin[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= prime64
	}
	return h
}

// Sampled reports whether the rumor is in the recorded sample.
func (r *Recorder) Sampled(origin string, seq uint64) bool {
	if r.threshold == 0 {
		return false
	}
	if r.threshold == math.MaxUint64 {
		return true
	}
	return hashID(origin, seq)>>32 < r.threshold
}

// Trace records the transition, overwriting the oldest record when the
// ring is full.
func (r *Recorder) Trace(e TraceEvent) {
	now := time.Now()
	r.mu.Lock()
	rec := TraceRecord{TraceEvent: e, Index: r.next, Time: now}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next%uint64(cap(r.ring))] = rec
	}
	r.next++
	r.mu.Unlock()
}

// Len reports the number of retained records.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Records returns the retained records in arrival order (oldest
// first).
func (r *Recorder) Records() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	start := r.next % uint64(cap(r.ring))
	out = append(out, r.ring[start:]...)
	out = append(out, r.ring[:start]...)
	return out
}

// Path returns the retained records of one rumor in arrival order —
// its reconstructed publish → first-send → receive → deliver/drop
// trajectory across every node sharing this recorder.
func (r *Recorder) Path(origin string, seq uint64) []TraceRecord {
	all := r.Records()
	out := all[:0]
	for _, rec := range all {
		if rec.Origin == origin && rec.Seq == seq {
			out = append(out, rec)
		}
	}
	return out
}
