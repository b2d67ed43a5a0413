package experiments

import (
	"strings"
	"testing"
)

func TestRunWirecostValidation(t *testing.T) {
	if _, err := RunWirecost(WirecostConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunWirecost(WirecostConfig{Fanouts: []int{0}, Rounds: 10}); err == nil {
		t.Fatal("zero fanout accepted")
	}
}

// TestRunWirecostEncodeIndependentOfFanout is the sweep's acceptance
// check: the encode-once path's allocation cost stays flat as fanout
// grows, while the per-peer baseline scales with it — at fanout 8 by at
// least the tentpole's 4× bound.
func TestRunWirecostEncodeIndependentOfFanout(t *testing.T) {
	cfg := DefaultWirecostConfig()
	cfg.Fanouts, cfg.Rounds = []int{1, 8}, 50
	rows, err := RunWirecost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	one, eight := rows[0], rows[1]
	if eight.BytesPerRound < 7*one.BytesPerRound {
		t.Fatalf("bytes/round did not scale with fanout: %v vs %v", one.BytesPerRound, eight.BytesPerRound)
	}
	// Encode work independent of fanout: no per-target allocations.
	if eight.EncodeOnceAllocs > one.EncodeOnceAllocs+1 {
		t.Fatalf("encode-once allocs grew with fanout: %v -> %v", one.EncodeOnceAllocs, eight.EncodeOnceAllocs)
	}
	if eight.PerPeerAllocs < 8 {
		t.Fatalf("per-peer baseline allocs = %v, expected at least one per target", eight.PerPeerAllocs)
	}
	if eight.AllocRatio() < 4 {
		t.Fatalf("encode-once only %vx cheaper at fanout 8, want >= 4x", eight.AllocRatio())
	}
	// Wire-format comparison at fanout 8 against the retired row-wise v4
	// baseline for this same round: the columnar stored form never costs
	// more, and the compressed form is at least 3× smaller.
	if eight.BytesPerRound > v4BytesPerRoundFanout8 {
		t.Fatalf("stored columnar round costs more than v4: %v vs %d bytes/round", eight.BytesPerRound, v4BytesPerRoundFanout8)
	}
	if 3*eight.CompressedBytesPerRound > v4BytesPerRoundFanout8 {
		t.Fatalf("flate round only %.1fx smaller than v4 at fanout 8, want >= 3x (%v vs %d bytes/round)",
			v4BytesPerRoundFanout8/eight.CompressedBytesPerRound, eight.CompressedBytesPerRound, v4BytesPerRoundFanout8)
	}

	var sb strings.Builder
	RenderWirecost(&sb, cfg, rows)
	if !strings.Contains(sb.String(), "fanout") || !strings.Contains(sb.String(), "encode-once") {
		t.Fatalf("render missing headers:\n%s", sb.String())
	}
}
