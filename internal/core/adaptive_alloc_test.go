package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
)

// TestEverythingOnRoundAllocFree is the allocation contract of the member
// a deployment actually runs: adaptation, recovery, failure detection
// (with RTT harvesting) and health digests all enabled, in a 16-member
// group. One steady-state round — a Tick, then what a member receives
// within a period: the ack of its own ping, a ping to answer, a ping-req
// to relay with the subject's ack to forward, and a round message
// carrying events it already has, a recovery digest, rumors and health
// digests — allocates nothing. (An event seen for the first time costs
// its one payload copy; that is TestReceiveBorrowedAllocsPerNewEvent's
// subject.)
func TestEverythingOnRoundAllocFree(t *testing.T) {
	const members = 16
	ids := make([]gossip.NodeID, members)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("node-%02d", i))
	}
	self, peer, subject := ids[0], ids[1], ids[2]
	cp := DefaultParams()
	cp.InitialRate = 5
	metrics := &observe.NodeMetrics{}
	node, err := NewAdaptiveNode(NodeConfig{
		ID:       self,
		Gossip:   gossip.Params{Fanout: 4, Period: 50 * time.Millisecond, MaxEvents: 120, MaxAge: 10},
		Adaptive: true,
		Core:     cp,
		Recovery: recovery.Params{Enabled: true, RetainRounds: 1000}, // the round's events stay in the store throughout
		Failure:  failure.Params{Enabled: true},
		Health:   health.Params{Enabled: true},
		Links:    observe.NewPeerTable(64),
		Metrics:  metrics,
		Peers:    membership.NewRegistry(ids...),
		RNG:      rand.New(rand.NewPCG(15, 15)),
		Deliver:  func(gossip.Event) {},
		Start:    start,
	})
	if err != nil {
		t.Fatal(err)
	}

	// What the peer sends every round: 22 events from all origins, the
	// ids of the same events as its recovery digest, an alive rumor and
	// three health digests.
	round := &gossip.Message{From: peer, Adaptive: true, SamplePeriod: 3, MinBuff: 120}
	for i := 0; i < 22; i++ {
		ev := gossip.Event{
			ID:      gossip.EventID{Origin: ids[i%members], Seq: uint64(i)},
			Age:     i % 5,
			Payload: make([]byte, 200),
		}
		round.Events = append(round.Events, ev)
		round.Digest = append(round.Digest, ev.ID)
	}
	round.Updates = []gossip.MemberUpdate{{Node: ids[5], Status: gossip.MemberAlive, Incarnation: 1}}
	for _, id := range ids[3:6] {
		round.Health = append(round.Health, gossip.HealthDigest{Node: id, BufferCap: 120})
	}
	ack := &gossip.Message{Kind: gossip.KindPingAck}
	ping := &gossip.Message{Kind: gossip.KindPing, From: peer}
	pingReq := &gossip.Message{Kind: gossip.KindPingReq, From: peer, Probe: subject}
	relayedAck := &gossip.Message{Kind: gossip.KindPingAck, From: subject, Probe: subject}

	now := start
	var pings, acks, relayed int
	oneRound := func() {
		now = now.Add(50 * time.Millisecond)
		for _, out := range node.Tick(now) {
			if out.Msg.Kind == gossip.KindPing {
				pings++
				ack.From, ack.ProbeSeq = out.To, out.Msg.ProbeSeq
			}
		}
		if ack.From != "" {
			node.Receive(ack, now)
			ack.From = ""
		}
		ping.Round++
		ping.ProbeSeq++
		for _, out := range node.Receive(ping, now) {
			if out.Msg.Kind == gossip.KindPingAck && out.To == peer {
				acks++
			}
		}
		pingReq.ProbeSeq++
		relayedAck.ProbeSeq = pingReq.ProbeSeq
		node.Receive(pingReq, now)
		for _, out := range node.Receive(relayedAck, now) {
			if out.Msg.Kind == gossip.KindPingAck && out.To == peer && out.Msg.Probe == subject {
				relayed++
			}
		}
		round.Round++
		for i := range round.Events {
			round.Events[i].Age++
		}
		for i := range round.Health {
			round.Health[i].Round++
		}
		node.Receive(round, now)
	}

	// Warm-up: the events are delivered once, every member has been
	// probed at least once (the detector and the link table allocate a
	// row at first contact) and the scratch slices reach their working
	// sizes.
	const warmup, runs = 100, 20
	for i := 0; i < warmup; i++ {
		oneRound()
	}
	if allocs := testing.AllocsPerRun(runs, oneRound); allocs != 0 {
		t.Errorf("an everything-on round allocates %v times, want 0", allocs)
	}
	if want := warmup + runs + 1; pings < want-3 || acks != want || relayed != want {
		t.Fatalf("over %d rounds: %d pings launched, %d pings answered, %d acks relayed — the round is not doing what it claims",
			want, pings, acks, relayed)
	}
	st := node.RecoveryStats()
	if hs := node.HealthStats(); st.DigestsSent == 0 || st.DigestsReceived == 0 || hs.DigestsMerged == 0 || node.FailureStats().UpdatesReceived == 0 {
		t.Fatalf("subsystems idle: recovery %+v, health %+v, failure %+v", st, hs, node.FailureStats())
	}
}
