package failure

import (
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
)

// TestProbeRTTHarvest: a direct ping→ack round trip lands one RTT
// observation in the target's per-peer histogram; relayed acks and
// repeated acks for the same probe do not.
func TestProbeRTTHarvest(t *testing.T) {
	e, err := NewEngine("a", Params{Enabled: true}, staticPeers{ids: []gossip.NodeID{"b", "c"}}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	links := observe.NewPeerTable(8)
	e.SetLinks(links)
	now := time.Unix(100, 0)
	e.SetClock(func() time.Time { return now })

	_, outs := tick(e)
	if kindsOf(outs)[gossip.KindPing] != 1 {
		t.Fatalf("expected one ping, got %v", kindsOf(outs))
	}
	ping := outs[0].Msg
	target := outs[0].To

	now = now.Add(1500 * time.Microsecond)
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: target, ProbeSeq: ping.ProbeSeq})

	snap := links.Get(string(target)).RTTMicros.Snapshot()
	if snap.Count != 1 || snap.Sum != 1500 {
		t.Fatalf("RTT histogram = count %d sum %d, want 1/1500", snap.Count, snap.Sum)
	}

	// A duplicate ack for the resolved probe adds nothing.
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: target, ProbeSeq: ping.ProbeSeq})
	if got := links.Get(string(target)).RTTMicros.Snapshot().Count; got != 1 {
		t.Fatalf("duplicate ack observed: count %d", got)
	}
}

// TestProbeRTTSkipsIndirectAcks: once the probe enters the indirect
// phase the eventual ack no longer measures the direct link.
func TestProbeRTTSkipsIndirectAcks(t *testing.T) {
	e, err := NewEngine("a", Params{Enabled: true},
		staticPeers{ids: []gossip.NodeID{"b", "c", "d"}}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	links := observe.NewPeerTable(8)
	e.SetLinks(links)
	now := time.Unix(100, 0)
	e.SetClock(func() time.Time { return now })

	_, outs := tick(e)
	ping := outs[0].Msg
	target := outs[0].To
	tick(e) // direct timeout: indirect phase begins
	now = now.Add(time.Millisecond)
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: target, ProbeSeq: ping.ProbeSeq})
	if ps := links.Get(string(target)); ps.RTTMicros.Snapshot().Count != 0 {
		t.Fatalf("indirect-phase ack observed as direct RTT")
	}
}

// TestProbeNoWallClockWithoutLinks: with no peer table installed,
// probes never stamp wall-clock state.
func TestProbeNoWallClockWithoutLinks(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b"}, Params{Enabled: true})
	tick(e)
	for _, p := range e.probeOrder {
		if !p.sentWall.IsZero() {
			t.Fatal("probe stamped wall clock with RTT harvesting off")
		}
	}
}
