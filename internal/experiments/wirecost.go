package experiments

import (
	"fmt"
	"io"
	"testing"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/transport"
)

// WirecostConfig parameterizes the wire-cost sweep: how much one
// gossip round costs the sender in bytes and allocations as the fanout
// grows. The paper's protocol addresses one read-only message to F
// targets per round; with the encode-once fast path the serialization
// cost should be independent of F.
type WirecostConfig struct {
	// Fanouts are the sweep points (number of targets per round).
	Fanouts []int
	// Events is the number of events carried by the round message.
	Events int
	// Payload is the payload size of each event in bytes.
	Payload int
	// Rounds is the number of measured rounds per sweep point.
	Rounds int
}

// DefaultWirecostConfig mirrors a loaded gossip round: a message-buffer
// snapshot of 30 events of 200 bytes, the regime of the paper's
// Figure 4 experiments.
func DefaultWirecostConfig() WirecostConfig {
	return WirecostConfig{
		Fanouts: []int{1, 2, 4, 8, 16, 32},
		Events:  30,
		Payload: 200,
		Rounds:  200,
	}
}

// v4BytesPerRoundFanout8 is the wire cost of one DefaultWirecostConfig
// round at fanout 8 in the retired row-wise wire v4 (every event
// repeating its origin and fixed-width seq/age), measured over loopback
// UDP before v4 was removed and frozen in BENCH_6.json. It is the
// baseline the columnar and compressed arms are judged against.
const v4BytesPerRoundFanout8 = 56392

// WirecostRow is one fanout point of the sweep. It compares the
// encode-once SendMany path against the per-peer-encode baseline (the
// allocation axis) and the stored and flate-compressed encodings of the
// columnar wire format against each other (the bytes axis).
type WirecostRow struct {
	Fanout int
	// BytesPerRound is the stored (uncompressed) wire cost of one round
	// — the format the default codec speaks.
	BytesPerRound float64
	// CompressedBytesPerRound is the same round with the flate
	// compressor on the event section.
	CompressedBytesPerRound float64
	// Allocations per round, sender side (stored path).
	EncodeOnceAllocs float64
	PerPeerAllocs    float64
}

// AllocRatio reports how many times cheaper (in allocations) the
// encode-once path is; per-peer-allocs / encode-once-allocs, with the
// zero-alloc case reported against one allocation.
func (r WirecostRow) AllocRatio() float64 {
	den := r.EncodeOnceAllocs
	if den < 1 {
		den = 1
	}
	return r.PerPeerAllocs / den
}

// CompressionRatio reports how many times fewer bytes one round costs
// compressed than stored.
func (r WirecostRow) CompressionRatio() float64 {
	den := r.CompressedBytesPerRound
	if den < 1 {
		den = 1
	}
	return r.BytesPerRound / den
}

// RunWirecost measures per-round send cost versus fanout over real
// loopback UDP sockets. The receiver sockets are bound but never read —
// the measurement isolates the sender's encode+write work, which is the
// hot path the encode-once fanout optimizes. Two sender sockets carry
// the same round, one stored and one flate-compressed, so the byte
// columns come from real datagram writes, not size arithmetic.
func RunWirecost(cfg WirecostConfig) ([]WirecostRow, error) {
	if len(cfg.Fanouts) == 0 || cfg.Events < 0 || cfg.Payload < 0 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("wirecost: invalid config %+v", cfg)
	}
	maxFanout := 0
	for _, f := range cfg.Fanouts {
		if f < 1 {
			return nil, fmt.Errorf("wirecost: fanout %d must be at least 1", f)
		}
		if f > maxFanout {
			maxFanout = f
		}
	}

	sender, err := transport.NewUDPTransport("wirecost-sender", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer sender.Close()
	senderComp, err := transport.NewUDPTransport("wirecost-sender", "127.0.0.1:0",
		transport.WithUDPCompression(transport.NewFlateCompressor()))
	if err != nil {
		return nil, err
	}
	defer senderComp.Close()

	targets := make([]gossip.NodeID, 0, maxFanout)
	for i := 0; i < maxFanout; i++ {
		id := gossip.NodeID(fmt.Sprintf("wirecost-peer-%d", i))
		ep, err := transport.NewUDPTransport(id, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ep.Close()
		for _, s := range []*transport.UDPTransport{sender, senderComp} {
			if err := s.Register(id, ep.Addr().String()); err != nil {
				return nil, err
			}
		}
		targets = append(targets, id)
	}

	msg := wirecostMessage(cfg.Events, cfg.Payload)
	rows := make([]WirecostRow, 0, len(cfg.Fanouts))
	for _, fanout := range cfg.Fanouts {
		tos := targets[:fanout]
		before := sender.Stats()
		encodeOnce := testing.AllocsPerRun(cfg.Rounds, func() {
			if _, err := sender.SendMany(tos, msg); err != nil {
				panic(err)
			}
		})
		after := sender.Stats()
		// AllocsPerRun invokes the round once extra as warmup.
		storedBytes := float64(after.SentBytes-before.SentBytes) / float64(cfg.Rounds+1)
		compBefore := senderComp.Stats().SentBytes
		for r := 0; r < cfg.Rounds; r++ {
			if _, err := senderComp.SendMany(tos, msg); err != nil {
				return nil, err
			}
		}
		compBytes := float64(senderComp.Stats().SentBytes-compBefore) / float64(cfg.Rounds)
		// Baseline: one Send per target — each call re-encodes the
		// identical message, the pre-SendMany wire path.
		perPeer := testing.AllocsPerRun(cfg.Rounds, func() {
			for _, to := range tos {
				if err := sender.Send(to, msg); err != nil {
					panic(err)
				}
			}
		})
		rows = append(rows, WirecostRow{
			Fanout:                  fanout,
			BytesPerRound:           storedBytes,
			CompressedBytesPerRound: compBytes,
			EncodeOnceAllocs:        encodeOnce,
			PerPeerAllocs:           perPeer,
		})
	}
	return rows, nil
}

// wirecostMessage builds a representative round message: a buffer
// snapshot of events from one origin, ages spread across the window.
func wirecostMessage(events, payload int) *gossip.Message {
	msg := &gossip.Message{
		Kind:  gossip.KindGossip,
		From:  "wirecost-sender",
		Round: 42,
	}
	for i := 0; i < events; i++ {
		body := make([]byte, payload)
		for j := range body {
			body[j] = byte(i + j)
		}
		msg.AppendEvent(gossip.Event{
			ID:      gossip.EventID{Origin: "wirecost-sender", Seq: uint64(i)},
			Age:     i % 10,
			Payload: body,
		})
	}
	return msg
}

// RenderWirecost prints the sweep table.
func RenderWirecost(w io.Writer, cfg WirecostConfig, rows []WirecostRow) {
	fmt.Fprintf(w, "# Wirecost — per-round send cost vs fanout (loopback UDP, %d events × %d B)\n",
		cfg.Events, cfg.Payload)
	fmt.Fprintf(w, "# retired wire v4 baseline: %d bytes/round at fanout 8 for 30 events × 200 B (BENCH_6.json)\n",
		v4BytesPerRoundFanout8)
	fmt.Fprintln(w, "# fanout  stored-bytes/rnd  flate-bytes/rnd  stored/flate  allocs/round(encode-once)  allocs/round(per-peer)  ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d  %16.0f  %15.0f  %11.1fx  %25.1f  %22.1f  %5.1fx\n",
			r.Fanout, r.BytesPerRound, r.CompressedBytesPerRound,
			r.CompressionRatio(), r.EncodeOnceAllocs, r.PerPeerAllocs, r.AllocRatio())
	}
}
