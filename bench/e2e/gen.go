package e2e

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// headerBytes is the fixed payload prefix: the event number and a
// checksum of the text that follows, both big endian.
const headerBytes = 16

// probeBit marks set-up probe payloads, which are published before the
// schedule starts and are not part of it.
const probeBit = 1 << 63

// tokens is the fixed dictionary payload text is drawn from: words of a
// telemetry feed, separated by spaces and carrying three-digit
// readings, so that DEFLATE shrinks a frame of them roughly threefold.
// Zero-filled payloads would compress 18x and misstate flate's price.
var tokens = []string{
	"temp", "humidity", "pressure", "volt", "amp", "rpm", "flow", "level",
	"valve", "pump", "fan", "door", "zone", "rack", "unit", "node",
	"alarm", "warn", "ok", "fault", "open", "closed", "idle", "busy",
	"north", "south", "east", "west", "upper", "lower", "inlet", "outlet",
	"setpoint", "reading", "delta", "mean", "peak", "floor", "drift", "trend",
	"battery", "mains", "backup", "relay", "sensor", "probe", "meter", "gauge",
	"start", "stop", "reset", "trip", "hold", "ramp", "cycle", "phase",
	"red", "amber", "green", "blue", "alpha", "bravo", "charlie", "delta2",
}

// Publish is one scheduled broadcast.
type Publish struct {
	// Due is when the open loop sends it, as an offset from the start
	// of the schedule (warm-up included).
	Due     time.Duration
	Member  int
	Payload []byte
}

// Schedule is a workload's generated input: every publish of the run in
// due order. Events whose Due lies in [WindowStart, WindowEnd) are the
// measured ones.
type Schedule struct {
	Events      []Publish
	WindowStart time.Duration
	WindowEnd   time.Duration
}

// Generate builds the publish schedule of w for one seed: Poisson
// arrivals at the offered rate over warm-up plus window, the publishing
// member drawn uniformly, payloads of seeded dictionary text. The same
// (workload, seed, window) gives byte-identical output; the seed goes
// no further than this function.
//
// The arrivals are a Poisson process conditioned on its count: the
// warm-up and each sub-window get exactly rate x length publishes, at
// independent uniform instants. Gaps stay exponential and bursts stay
// as likely, but the offered load of a window no longer varies by
// +-1% from seed to seed, which would otherwise be the whole run-to-run
// spread of goodput_eps on a workload that refuses nothing.
func Generate(w Workload, seed uint64, window time.Duration) *Schedule {
	rng := rand.New(rand.NewPCG(seed, 0x9055_1be4_c0ff_ee00))
	s := &Schedule{WindowStart: w.Warmup, WindowEnd: w.Warmup + window}
	var dues []time.Duration
	span := func(from, length time.Duration) {
		count := int(math.Round(w.OfferedRate * length.Seconds()))
		for i := 0; i < count; i++ {
			dues = append(dues, from+time.Duration(rng.Float64()*float64(length)))
		}
	}
	span(0, w.Warmup)
	for k := 0; k < SubWindows; k++ {
		span(w.Warmup+time.Duration(k)*window/SubWindows, window/SubWindows)
	}
	slices.Sort(dues)
	s.Events = make([]Publish, len(dues))
	for i, due := range dues {
		s.Events[i] = Publish{Due: due, Member: rng.IntN(w.N), Payload: makePayload(rng, uint64(i), w.PayloadBytes)}
	}
	return s
}

// makePayload builds one payload of exactly size bytes (at least the
// header).
func makePayload(rng *rand.Rand, number uint64, size int) []byte {
	if size < headerBytes {
		size = headerBytes
	}
	p := make([]byte, headerBytes, size)
	for len(p) < size {
		p = append(p, tokens[rng.IntN(len(tokens))]...)
		p = append(p, '=', byte('0'+rng.IntN(10)), byte('0'+rng.IntN(10)), byte('0'+rng.IntN(10)), ' ')
	}
	p = p[:size]
	binary.BigEndian.PutUint64(p[:8], number)
	binary.BigEndian.PutUint64(p[8:16], checksum(p[headerBytes:]))
	return p
}

// checksum is the header checksum of a payload's text.
func checksum(text []byte) uint64 {
	h := fnv.New64a()
	h.Write(text)
	return h.Sum64()
}

// payloadOK reports whether a payload's header checksum matches its
// text.
func payloadOK(p []byte) bool {
	return len(p) >= headerBytes && binary.BigEndian.Uint64(p[8:16]) == checksum(p[headerBytes:])
}

// probePayload is the payload of the k-th set-up probe.
func probePayload(k int, size int) []byte {
	if size < headerBytes {
		size = headerBytes
	}
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p[:8], probeBit|uint64(k))
	binary.BigEndian.PutUint64(p[8:16], checksum(p[headerBytes:]))
	return p
}
