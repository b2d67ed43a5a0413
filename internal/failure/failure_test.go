package failure

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"adaptivegossip/internal/gossip"
)

// staticPeers is a deterministic sampler over a fixed list: it always
// returns the first k non-self members in order, which unit tests use
// to pin the probe target.
type staticPeers struct{ ids []gossip.NodeID }

func (s staticPeers) AppendPeers(dst []gossip.NodeID, self gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	n := 0
	for _, id := range s.ids {
		if n == k {
			break
		}
		if id != self {
			dst = append(dst, id)
			n++
		}
	}
	return dst
}

// randPeers samples uniformly, like membership.Registry.
type randPeers struct{ ids []gossip.NodeID }

func (s randPeers) AppendPeers(dst []gossip.NodeID, self gossip.NodeID, k int, rng *rand.Rand) []gossip.NodeID {
	pool := make([]gossip.NodeID, 0, len(s.ids))
	for _, id := range s.ids {
		if id != self {
			pool = append(pool, id)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if k < len(pool) {
		pool = pool[:k]
	}
	return append(dst, pool...)
}

func newTestEngine(t *testing.T, self gossip.NodeID, peers []gossip.NodeID, p Params) *Engine {
	t.Helper()
	e, err := NewEngine(self, p, staticPeers{ids: peers}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// tick runs one OnTick round and returns the outgoing gossip message
// plus the drained control messages.
func tick(e *Engine) (*gossip.Message, []gossip.Outgoing) {
	msg := &gossip.Message{Kind: gossip.KindGossip, From: e.self}
	e.OnTick(nil, msg)
	return msg, e.TakeOutgoing()
}

func kindsOf(outs []gossip.Outgoing) map[gossip.MessageKind]int {
	m := make(map[gossip.MessageKind]int)
	for _, o := range outs {
		m[o.Msg.Kind]++
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero params invalid: %v", err)
	}
	if err := (Params{SuspicionTimeoutRounds: -1}).Validate(); err == nil {
		t.Fatal("negative suspicion timeout accepted")
	}
}

func TestNewEngineRejectsBadArgs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := NewEngine("", Params{}, staticPeers{}, rng); err == nil {
		t.Fatal("empty self accepted")
	}
	if _, err := NewEngine("a", Params{}, nil, rng); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if _, err := NewEngine("a", Params{}, staticPeers{}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestDirectProbeAck: a probe answered in time leaves the target alive
// and clears the outstanding probe.
func TestDirectProbeAck(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b"}, Params{Enabled: true})
	_, outs := tick(e)
	if kindsOf(outs)[gossip.KindPing] != 1 {
		t.Fatalf("expected one ping, got %v", kindsOf(outs))
	}
	ping := outs[0].Msg
	if outs[0].To != "b" || ping.From != "a" {
		t.Fatalf("ping misaddressed: to=%s from=%s", outs[0].To, ping.From)
	}
	// b answers.
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: "b", ProbeSeq: ping.ProbeSeq})
	if got := e.Stats().AcksReceived; got != 1 {
		t.Fatalf("AcksReceived = %d, want 1", got)
	}
	// Several more rounds: no suspicion.
	for i := 0; i < 10; i++ {
		tick(e)
		// Keep answering so subsequent probes resolve too.
		for _, o := range e.TakeOutgoing() {
			_ = o
		}
		e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "b"})
	}
	if e.Status("b") != gossip.MemberAlive {
		t.Fatalf("b = %v, want alive", e.Status("b"))
	}
	if e.Stats().Suspects != 0 {
		t.Fatalf("suspicions raised on an answering peer: %+v", e.Stats())
	}
}

// TestIndirectProbeThenSuspectThenConfirm walks the full SWIM
// escalation for a silent target: a direct timeout of one round, an
// indirect phase of two with indirectProbes proxies, then the
// suspicion timeout.
func TestIndirectProbeThenSuspectThenConfirm(t *testing.T) {
	p := Params{Enabled: true, SuspicionTimeoutRounds: 2}
	var transitions []string
	e := newTestEngine(t, "a", []gossip.NodeID{"b", "c", "d", "x"}, p)
	e.SetOnChange(func(id gossip.NodeID, st gossip.MemberStatus) {
		transitions = append(transitions, string(id)+":"+st.String())
	})
	// Round 1: ping b (first sampled target). b never answers; keep the
	// proxies fresh so ping-reqs go to them.
	_, outs := tick(e)
	if kindsOf(outs)[gossip.KindPing] != 1 {
		t.Fatalf("round 1: expected ping, got %v", kindsOf(outs))
	}
	target := outs[0].To

	// Round 2: direct timeout → ping-reqs to proxies; plus this round's
	// new probe of some other member.
	_, outs = tick(e)
	if got := kindsOf(outs)[gossip.KindPingReq]; got != indirectProbes {
		t.Fatalf("round 2: %d ping-reqs, want %d (outs %v)", got, indirectProbes, kindsOf(outs))
	}
	for _, o := range outs {
		if o.Msg.Kind == gossip.KindPingReq {
			if o.To == target {
				t.Fatal("ping-req sent to the probed target itself")
			}
			if o.Msg.Probe != target {
				t.Fatalf("ping-req subject = %s, want %s", o.Msg.Probe, target)
			}
		}
	}

	// Round 3: the indirect phase still runs; round 4: indirect timeout
	// → suspect.
	tick(e)
	if e.Status(target) != gossip.MemberAlive {
		t.Fatalf("one round into the indirect phase: %v, want alive", e.Status(target))
	}
	tick(e)
	if e.Status(target) != gossip.MemberSuspect {
		t.Fatalf("after indirect timeout: %v, want suspect", e.Status(target))
	}
	if e.Stats().Suspects != 1 {
		t.Fatalf("Suspects = %d, want 1", e.Stats().Suspects)
	}

	// Two more rounds: suspicion timeout → confirm, callback fired,
	// confirm rumor piggybacked on the gossip message.
	tick(e)
	msg, _ := tick(e)
	if e.Status(target) != gossip.MemberConfirmed {
		t.Fatalf("after suspicion timeout: %v, want confirmed", e.Status(target))
	}
	found := false
	for _, u := range msg.Updates {
		if u.Node == target && u.Status == gossip.MemberConfirmed {
			found = true
		}
	}
	if !found {
		t.Fatalf("confirm rumor not piggybacked: %+v", msg.Updates)
	}
	// Other silent members get suspected too; check the probed target's
	// own transition sequence.
	var targetSeq []string
	for _, tr := range transitions {
		if len(tr) > len(target) && tr[:len(target)] == string(target) {
			targetSeq = append(targetSeq, tr)
		}
	}
	wantSeq := []string{string(target) + ":suspect", string(target) + ":confirmed"}
	if len(targetSeq) != 2 || targetSeq[0] != wantSeq[0] || targetSeq[1] != wantSeq[1] {
		t.Fatalf("target transitions = %v, want %v", targetSeq, wantSeq)
	}
}

// TestProofOfLifeRevivesSuspect: any direct message clears suspicion
// and fires the alive callback.
func TestProofOfLifeRevivesSuspect(t *testing.T) {
	p := Params{Enabled: true, SuspicionTimeoutRounds: 10}
	e := newTestEngine(t, "a", []gossip.NodeID{"b"}, p)
	var alive []gossip.NodeID
	e.SetOnChange(func(id gossip.NodeID, st gossip.MemberStatus) {
		if st == gossip.MemberAlive {
			alive = append(alive, id)
		}
	})
	for i := 0; i < 5; i++ {
		tick(e)
	}
	if e.Status("b") != gossip.MemberSuspect {
		t.Fatalf("b = %v, want suspect", e.Status("b"))
	}
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "b"})
	if e.Status("b") != gossip.MemberAlive {
		t.Fatalf("b = %v after direct contact, want alive", e.Status("b"))
	}
	if len(alive) != 1 || alive[0] != "b" {
		t.Fatalf("alive callbacks = %v, want [b]", alive)
	}
	if e.Stats().Revivals != 1 {
		t.Fatalf("Revivals = %d, want 1", e.Stats().Revivals)
	}
}

// TestSelfRefutation: a suspect rumor about ourselves bumps the
// incarnation and queues an alive announcement.
func TestSelfRefutation(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b"}, Params{Enabled: true})
	e.OnReceive(nil, &gossip.Message{
		Kind: gossip.KindGossip, From: "b",
		Updates: []gossip.MemberUpdate{{Node: "a", Status: gossip.MemberSuspect, Incarnation: 0}},
	})
	if e.Incarnation() != 1 {
		t.Fatalf("incarnation = %d, want 1", e.Incarnation())
	}
	if e.Stats().Refutations != 1 {
		t.Fatalf("Refutations = %d, want 1", e.Stats().Refutations)
	}
	msg, _ := tick(e)
	found := false
	for _, u := range msg.Updates {
		if u.Node == "a" && u.Status == gossip.MemberAlive && u.Incarnation == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("refutation not piggybacked: %+v", msg.Updates)
	}
}

// TestAliveRumorRefutesSuspicionOnlyWithHigherIncarnation enforces
// SWIM's ordering.
func TestAliveRumorRefutesSuspicionOnlyWithHigherIncarnation(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b", "c"}, Params{Enabled: true})
	// Make round > freshnessRounds so the guard cannot mask precedence.
	for i := 0; i < 3; i++ {
		tick(e)
	}
	e.applyUpdate(gossip.MemberUpdate{Node: "z", Status: gossip.MemberSuspect, Incarnation: 3})
	if e.Status("z") != gossip.MemberSuspect {
		t.Fatalf("z = %v, want suspect", e.Status("z"))
	}
	// Same incarnation: no refutation.
	e.applyUpdate(gossip.MemberUpdate{Node: "z", Status: gossip.MemberAlive, Incarnation: 3})
	if e.Status("z") != gossip.MemberSuspect {
		t.Fatalf("same-incarnation alive refuted suspicion")
	}
	// Higher incarnation: refuted.
	e.applyUpdate(gossip.MemberUpdate{Node: "z", Status: gossip.MemberAlive, Incarnation: 4})
	if e.Status("z") != gossip.MemberAlive {
		t.Fatalf("higher-incarnation alive did not refute: %v", e.Status("z"))
	}
	// Confirm beats alive at the same incarnation.
	e.applyUpdate(gossip.MemberUpdate{Node: "z", Status: gossip.MemberConfirmed, Incarnation: 4})
	if e.Status("z") != gossip.MemberConfirmed {
		t.Fatalf("same-incarnation confirm ignored: %v", e.Status("z"))
	}
	// A rejoin announcement (higher incarnation) revives even confirmed.
	e.applyUpdate(gossip.MemberUpdate{Node: "z", Status: gossip.MemberAlive, Incarnation: 5})
	if e.Status("z") != gossip.MemberAlive {
		t.Fatalf("rejoin alive ignored after confirm: %v", e.Status("z"))
	}
}

// TestFreshnessGuardIgnoresStaleRumors: suspect/confirm rumors about a
// node we are actively hearing from are dropped, for freshnessRounds
// rounds after its last message.
func TestFreshnessGuardIgnoresStaleRumors(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b", "c"}, Params{Enabled: true})
	for i := 0; i < 5; i++ {
		tick(e)
		e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "c"})
	}
	before := e.Stats().UpdatesIgnored
	e.OnReceive(nil, &gossip.Message{
		Kind: gossip.KindGossip, From: "b",
		Updates: []gossip.MemberUpdate{{Node: "c", Status: gossip.MemberConfirmed, Incarnation: 9}},
	})
	if e.Status("c") != gossip.MemberAlive {
		t.Fatalf("fresh peer buried by stale rumor: %v", e.Status("c"))
	}
	if e.Stats().UpdatesIgnored != before+1 {
		t.Fatalf("UpdatesIgnored = %d, want %d", e.Stats().UpdatesIgnored, before+1)
	}

	// The guard's length, on an engine with no one to probe: c is last
	// heard in round 1, and the rumor applies from round 1+freshnessRounds.
	e = newTestEngine(t, "a", nil, Params{Enabled: true})
	tick(e)
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "c"})
	for round := 1; round <= 1+freshnessRounds; round++ {
		if round > 1 {
			tick(e)
		}
		e.applyUpdate(gossip.MemberUpdate{Node: "c", Status: gossip.MemberConfirmed, Incarnation: 9})
		if got, fresh := e.Status("c"), round < 1+freshnessRounds; fresh != (got == gossip.MemberAlive) {
			t.Fatalf("round %d: c = %v, rumor should apply from round %d", round, got, 1+freshnessRounds)
		}
	}
}

// TestPingReqRelay: a proxy probes the subject on the requester's
// behalf and forwards the ack back.
func TestPingReqRelay(t *testing.T) {
	e := newTestEngine(t, "p", []gossip.NodeID{"a", "b"}, Params{Enabled: true})
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingReq, From: "a", Probe: "b", ProbeSeq: 77})
	outs := e.TakeOutgoing()
	if len(outs) != 1 || outs[0].To != "b" || outs[0].Msg.Kind != gossip.KindPing || outs[0].Msg.ProbeSeq != 77 {
		t.Fatalf("relay ping wrong: %+v", outs)
	}
	// Subject answers the proxy.
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: "b", ProbeSeq: 77})
	outs = e.TakeOutgoing()
	if len(outs) != 1 || outs[0].To != "a" || outs[0].Msg.Kind != gossip.KindPingAck ||
		outs[0].Msg.Probe != "b" || outs[0].Msg.ProbeSeq != 77 {
		t.Fatalf("relayed ack wrong: %+v", outs)
	}
	st := e.Stats()
	if st.ProbesRelayed != 1 || st.AcksRelayed != 1 {
		t.Fatalf("relay counters: %+v", st)
	}
}

// TestRelaysBounded: 10,000 ping-reqs in one round, from one peer or
// each from a forged peer of its own, leave at most maxRelays relays
// and queue at most maxRelays pings; the rest are refused and counted.
// Without the cap the engine held a relay and queued a ping for each.
func TestRelaysBounded(t *testing.T) {
	const reqs = 10_000
	for _, tc := range []struct {
		name string
		from func(i int) gossip.NodeID
	}{
		{"one peer", func(int) gossip.NodeID { return "a" }},
		{"forged peers", func(i int) gossip.NodeID { return gossip.NodeID(fmt.Sprintf("forged-%d", i)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, "p", []gossip.NodeID{"a", "b"}, Params{Enabled: true})
			for i := range reqs {
				e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingReq, From: tc.from(i), Probe: "b", ProbeSeq: uint64(i)})
			}
			if len(e.relays) > maxRelays {
				t.Fatalf("%d relays live, want at most %d", len(e.relays), maxRelays)
			}
			if pings := kindsOf(e.TakeOutgoing())[gossip.KindPing]; pings > maxRelays {
				t.Fatalf("%d pings queued, want at most %d", pings, maxRelays)
			}
			if st := e.Stats(); st.PingReqsReceived != reqs || st.ProbesRelayed != maxRelays || st.PingReqsRefused != reqs-maxRelays {
				t.Fatalf("received %d, relayed %d, refused %d; want %d, %d and %d",
					st.PingReqsReceived, st.ProbesRelayed, st.PingReqsRefused, reqs, maxRelays, reqs-maxRelays)
			}
			// The relays expire, and the engine relays again.
			for range 5 {
				tick(e)
			}
			e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingReq, From: "a", Probe: "b", ProbeSeq: reqs})
			if pings := kindsOf(e.TakeOutgoing())[gossip.KindPing]; pings != 1 {
				t.Fatalf("%d pings after the relays expired, want 1", pings)
			}
		})
	}
}

// TestRelayedAckClearsRequesterProbe: the requester treats a relayed
// ack as proof of the subject's liveness.
func TestRelayedAckClearsRequesterProbe(t *testing.T) {
	p := Params{Enabled: true, SuspicionTimeoutRounds: 2}
	e := newTestEngine(t, "a", []gossip.NodeID{"b", "c"}, p)
	_, outs := tick(e) // ping b
	seq := outs[0].Msg.ProbeSeq
	tick(e) // direct timeout → ping-req phase
	// Proxy c relays b's ack.
	e.OnReceive(nil, &gossip.Message{Kind: gossip.KindPingAck, From: "c", Probe: "b", ProbeSeq: seq})
	for i := 0; i < 10; i++ {
		tick(e)
		e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "b"})
		e.OnReceive(nil, &gossip.Message{Kind: gossip.KindGossip, From: "c"})
	}
	if e.Status("b") != gossip.MemberAlive {
		t.Fatalf("b = %v after relayed ack, want alive", e.Status("b"))
	}
	if e.Stats().Suspects != 0 {
		t.Fatalf("suspicion raised despite relayed ack: %+v", e.Stats())
	}
}

// TestUpdateTransmitBudget: a rumor rides at most updateTransmits
// outgoing messages. The engine has no one to probe, so gossip messages
// are the only ones that carry rumors.
func TestUpdateTransmitBudget(t *testing.T) {
	e := newTestEngine(t, "a", nil, Params{Enabled: true})
	e.queueUpdate(gossip.MemberUpdate{Node: "x", Status: gossip.MemberConfirmed, Incarnation: 1})
	rides := 0
	for i := 0; i < 10; i++ {
		msg, _ := tick(e)
		for _, u := range msg.Updates {
			if u.Node == "x" {
				rides++
			}
		}
	}
	if rides != updateTransmits {
		t.Fatalf("rumor rode %d messages, want %d", rides, updateTransmits)
	}
}

// TestUpdatesPerMessageBound: piggyback volume per message is capped
// at updatesPerMessage, and rumors past the cap wait their turn.
func TestUpdatesPerMessageBound(t *testing.T) {
	e := newTestEngine(t, "a", nil, Params{Enabled: true})
	const queued = updatesPerMessage + 2
	for i := 0; i < queued; i++ {
		e.queueUpdate(gossip.MemberUpdate{
			Node: gossip.NodeID([]byte{'m', byte('a' + i)}), Status: gossip.MemberSuspect,
		})
	}
	rides := 0
	for round := 1; round <= 2*updateTransmits; round++ {
		msg, _ := tick(e)
		if len(msg.Updates) > updatesPerMessage || (round <= 2 && len(msg.Updates) != updatesPerMessage) {
			t.Fatalf("round %d piggybacked %d updates, want %d", round, len(msg.Updates), updatesPerMessage)
		}
		rides += len(msg.Updates)
	}
	if rides != queued*updateTransmits {
		t.Fatalf("%d rides in all, want every rumor's %d", rides, updateTransmits)
	}
}

// TestRejoinResetsStateAndAnnounces models a process restart.
func TestRejoinResetsStateAndAnnounces(t *testing.T) {
	e := newTestEngine(t, "a", []gossip.NodeID{"b"}, Params{Enabled: true, SuspicionTimeoutRounds: 1})
	for i := 0; i < 6; i++ {
		tick(e)
	}
	if e.Status("b") == gossip.MemberAlive {
		t.Fatal("precondition: b should be suspect/confirmed by now")
	}
	e.Rejoin()
	if e.Status("b") != gossip.MemberAlive {
		t.Fatalf("rejoin kept old opinion of b: %v", e.Status("b"))
	}
	if e.Incarnation() != 1 {
		t.Fatalf("incarnation = %d after rejoin, want 1", e.Incarnation())
	}
	msg, _ := tick(e)
	found := false
	for _, u := range msg.Updates {
		if u.Node == "a" && u.Status == gossip.MemberAlive && u.Incarnation == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejoin announcement missing: %+v", msg.Updates)
	}
}

// TestGroupDetectsCrashedMember drives four engines against each other
// with hand-routed messages, crashes one, and checks the survivors
// confirm it while never confirming each other.
func TestGroupDetectsCrashedMember(t *testing.T) {
	ids := []gossip.NodeID{"a", "b", "c", "d"}
	p := Params{Enabled: true, SuspicionTimeoutRounds: 2}
	engines := make(map[gossip.NodeID]*Engine, len(ids))
	for i, id := range ids {
		e, err := NewEngine(id, p, randPeers{ids: ids}, rand.New(rand.NewPCG(uint64(i)+1, 99)))
		if err != nil {
			t.Fatal(err)
		}
		engines[id] = e
	}
	crashed := gossip.NodeID("d")
	down := false
	var route func(from gossip.NodeID, outs []gossip.Outgoing)
	route = func(from gossip.NodeID, outs []gossip.Outgoing) {
		for _, o := range outs {
			if down && (o.To == crashed || from == crashed) {
				continue
			}
			target := engines[o.To]
			target.OnReceive(nil, o.Msg)
			route(o.To, target.TakeOutgoing())
		}
	}
	runRound := func() {
		for _, id := range ids {
			if down && id == crashed {
				continue
			}
			e := engines[id]
			msg := &gossip.Message{Kind: gossip.KindGossip, From: id}
			e.OnTick(nil, msg)
			route(id, e.TakeOutgoing())
			// The gossip message itself fans out to everyone (stands in
			// for the protocol's Fanout targets).
			for _, other := range ids {
				if other == id || (down && other == crashed) {
					continue
				}
				engines[other].OnReceive(nil, msg)
				route(other, engines[other].TakeOutgoing())
			}
		}
	}
	for i := 0; i < 5; i++ {
		runRound()
	}
	down = true
	confirmedAt := -1
	for i := 0; i < 30; i++ {
		runRound()
		all := true
		for _, id := range ids[:3] {
			if engines[id].Status(crashed) != gossip.MemberConfirmed {
				all = false
			}
		}
		if all {
			confirmedAt = i
			break
		}
	}
	if confirmedAt < 0 {
		for _, id := range ids[:3] {
			t.Logf("%s: status(d)=%v stats=%+v", id, engines[id].Status(crashed), engines[id].Stats())
		}
		t.Fatal("survivors never all confirmed the crashed member")
	}
	// No survivor may have confirmed another survivor.
	for _, id := range ids[:3] {
		for _, other := range ids[:3] {
			if id == other {
				continue
			}
			if st := engines[id].Status(other); st == gossip.MemberConfirmed {
				t.Fatalf("%s confirmed live member %s", id, other)
			}
		}
	}
	t.Logf("all survivors confirmed %s within %d rounds after crash", crashed, confirmedAt+1)
}

// TestStatsAddSumsEveryField gives every counter a distinct value and
// requires Add to sum each one: a counter added to Stats but not to Add
// fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := range va.NumField() {
		if got, want := va.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}
