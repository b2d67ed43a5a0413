package sim

import (
	"math"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func testNet(t *testing.T, opts ...NetworkOption) (*Scheduler, *Network) {
	t.Helper()
	s := NewScheduler(Epoch)
	n, err := NewNetwork(s, DeriveRNG(1, 1), opts...)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return s, n
}

func TestNetworkDelivers(t *testing.T) {
	s, n := testNet(t)
	var got []*gossip.Message
	n.Attach("b", func(m *gossip.Message) { got = append(got, m) })
	msg := &gossip.Message{From: "a"}
	n.Send("a", "b", msg)
	s.Drain(10)
	if len(got) != 1 || got[0] != msg {
		t.Fatalf("delivered %v", got)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestNetworkLatencyBounds(t *testing.T) {
	s, n := testNet(t, WithLatency(10*time.Millisecond, 50*time.Millisecond))
	var at []time.Time
	n.Attach("b", func(*gossip.Message) { at = append(at, s.Now()) })
	for i := 0; i < 200; i++ {
		n.Send("a", "b", &gossip.Message{})
	}
	s.RunUntil(Epoch.Add(time.Second))
	if len(at) != 200 {
		t.Fatalf("delivered %d/200", len(at))
	}
	for _, ts := range at {
		d := ts.Sub(Epoch)
		if d < 10*time.Millisecond || d > 50*time.Millisecond {
			t.Fatalf("latency %v out of bounds", d)
		}
	}
}

func TestNetworkLoss(t *testing.T) {
	s, n := testNet(t, WithLoss(0.5))
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		n.Send("a", "b", &gossip.Message{})
	}
	s.Drain(sent + 10)
	if delivered < 800 || delivered > 1200 {
		t.Fatalf("delivered %d of %d at 50%% loss", delivered, sent)
	}
	if got := n.Stats().LossDropped; got != uint64(sent-delivered) {
		t.Fatalf("LossDropped = %d, want %d", got, sent-delivered)
	}
}

func TestNetworkInvalidOptions(t *testing.T) {
	s := NewScheduler(Epoch)
	for _, p := range []float64{1.5, math.NaN()} {
		if _, err := NewNetwork(s, DeriveRNG(1, 1), WithLoss(p)); err == nil {
			t.Fatalf("loss %v accepted", p)
		}
	}
	if _, err := NewNetwork(s, DeriveRNG(1, 1), WithLatency(time.Second, 0)); err == nil {
		t.Fatal("inverted latency bounds accepted")
	}
	if _, err := NewNetwork(nil, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestNetworkDownNode(t *testing.T) {
	s, n := testNet(t)
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.SetDown("b", true)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 0 {
		t.Fatal("message delivered to down node")
	}
	n.SetDown("b", false)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("message not delivered after recovery")
	}
	// Down sender also drops.
	n.SetDown("a", true)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("down sender still sent")
	}
	if got := n.Stats().DownDropped; got != 2 {
		t.Fatalf("DownDropped = %d, want 2", got)
	}
}

func TestNetworkCrashMidFlight(t *testing.T) {
	s, n := testNet(t, WithLatency(100*time.Millisecond, 100*time.Millisecond))
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.Send("a", "b", &gossip.Message{})
	// Node b crashes while the message is in flight.
	s.After(50*time.Millisecond, func() { n.SetDown("b", true) })
	s.RunUntil(Epoch.Add(time.Second))
	if delivered != 0 {
		t.Fatal("in-flight message delivered to crashed node")
	}
}

func TestNetworkLinkFilter(t *testing.T) {
	s, n := testNet(t)
	delivered := 0
	n.Attach("b", func(*gossip.Message) { delivered++ })
	n.SetLinkFilter(func(from, to gossip.NodeID) bool { return false })
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 0 {
		t.Fatal("filtered link delivered")
	}
	if n.Stats().Filtered != 1 {
		t.Fatalf("Filtered = %d", n.Stats().Filtered)
	}
	n.SetLinkFilter(nil)
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if delivered != 1 {
		t.Fatal("cleared filter still dropping")
	}
}

func TestNetworkUnroutedAndDetach(t *testing.T) {
	s, n := testNet(t)
	n.Send("a", "nowhere", &gossip.Message{})
	s.Drain(10)
	if n.Stats().Unrouted != 1 {
		t.Fatalf("Unrouted = %d", n.Stats().Unrouted)
	}
	// A node the fabric knows only as a sender has no handler either.
	n.Send("b", "a", &gossip.Message{})
	n.Send("a", "b", &gossip.Message{})
	s.Drain(10)
	if n.Stats().Unrouted != 3 {
		t.Fatalf("Unrouted for a known but unattached node = %d", n.Stats().Unrouted)
	}
}

// scripted is a gossip.Machine built from two funcs (nil = nothing to
// send).
type scripted struct {
	id      gossip.NodeID
	onTick  func(now time.Time) []gossip.Outgoing
	receive func(m *gossip.Message, now time.Time) []gossip.Outgoing
}

func (s *scripted) ID() gossip.NodeID { return s.id }

func (s *scripted) Tick(now time.Time) []gossip.Outgoing {
	if s.onTick == nil {
		return nil
	}
	return s.onTick(now)
}

func (s *scripted) Receive(m *gossip.Message, now time.Time) []gossip.Outgoing {
	if s.receive == nil {
		return nil
	}
	return s.receive(m, now)
}

// TestAttachNodeCopiesReplies (the name predates Drive, which took
// AttachNode's place): what a machine returns from Receive is its
// scratch, rewritten when it next receives, while the fabric holds a
// reply until its delivery instant — so Drive must copy. Two pings
// arrive back to back; both acks are produced from one reused message,
// and both must arrive as sent.
func TestAttachNodeCopiesReplies(t *testing.T) {
	s, n := testNet(t, WithLatency(10*time.Millisecond, 10*time.Millisecond))
	var box gossip.Outbox
	n.Drive(&scripted{id: "b", receive: func(in *gossip.Message, now time.Time) []gossip.Outgoing {
		if !now.Equal(s.Now()) {
			t.Errorf("Receive got now = %v at %v", now, s.Now())
		}
		ack := box.Message()
		ack.Kind, ack.From, ack.ProbeSeq = gossip.KindPingAck, "b", in.ProbeSeq
		box.Queue(in.From, ack)
		return box.Take()
	}}, time.Hour, time.Hour)
	var got []uint64
	n.Attach("a", func(m *gossip.Message) { got = append(got, m.ProbeSeq) })
	n.Send("a", "b", &gossip.Message{Kind: gossip.KindPing, From: "a", ProbeSeq: 1})
	n.Send("a", "b", &gossip.Message{Kind: gossip.KindPing, From: "a", ProbeSeq: 2})
	s.RunFor(time.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("acks arrived with sequence numbers %v, want [1 2]", got)
	}
}

// roundRewriter is a machine that, like gossip.Node, owns one round
// message and rewrites it on every Tick; each round it also sends one
// control message from a second reused message.
type roundRewriter struct {
	scripted
	round, ctrl gossip.Message
	outs        []gossip.Outgoing
}

func newRoundRewriter(id gossip.NodeID, control bool, targets ...gossip.NodeID) *roundRewriter {
	r := &roundRewriter{}
	r.id = id
	r.round.From, r.ctrl.From = id, id
	r.ctrl.Kind = gossip.KindPing
	r.onTick = func(time.Time) []gossip.Outgoing {
		r.round.Round++
		r.ctrl.ProbeSeq = r.round.Round
		r.outs = r.outs[:0]
		for _, to := range targets {
			r.outs = append(r.outs, gossip.Outgoing{To: to, Msg: &r.round})
		}
		if control {
			r.outs = append(r.outs, gossip.Outgoing{To: targets[0], Msg: &r.ctrl})
		}
		return r.outs
	}
	return r
}

// TestDriveScratchRule runs the one copy rule on both sides of its
// condition. The machine rewrites its round and control messages on
// every Tick. With link latency at or beyond the period a delivery lands
// after the next Tick, so every message must arrive as it was sent —
// from one copy per round, shared by the round's targets. With latency
// under the period the round message rides uncopied (the receiver sees
// the machine's own message); control messages are copied either way.
func TestDriveScratchRule(t *testing.T) {
	const period = 100 * time.Millisecond
	for _, lat := range []time.Duration{period / 2, period, 5 * period / 2} {
		s, n := testNet(t, WithLatency(lat, lat))
		m := newRoundRewriter("a", true, "b", "c")
		type arrival struct {
			msg  *gossip.Message
			seen uint64 // Round or ProbeSeq as read at the delivery instant
			sent uint64 // the round the message was sent in, from the clock
		}
		var rounds, controls []arrival
		record := func(msg *gossip.Message) {
			// Ticks fire at k×period (k ≥ 1), deliveries lat later.
			a := arrival{msg: msg, seen: msg.Round, sent: uint64((s.Now().Sub(Epoch) - lat) / period)}
			if msg.Kind == gossip.KindPing {
				a.seen = msg.ProbeSeq
				controls = append(controls, a)
			} else {
				rounds = append(rounds, a)
			}
		}
		n.Attach("b", record)
		n.Attach("c", record)
		n.Drive(m, period, period)
		s.RunUntil(Epoch.Add(10*period + lat))
		if len(rounds) != 20 || len(controls) != 10 {
			t.Fatalf("latency %v: %d round and %d control deliveries, want 20 and 10", lat, len(rounds), len(controls))
		}
		for _, a := range append(rounds, controls...) {
			if a.seen != a.sent {
				t.Fatalf("latency %v: message of round %d arrived reading %d", lat, a.sent, a.seen)
			}
		}
		for _, a := range controls {
			if a.msg == &m.ctrl {
				t.Fatalf("latency %v: control message delivered uncopied", lat)
			}
		}
		for i := 0; i < len(rounds); i += 2 {
			if rounds[i].msg != rounds[i+1].msg {
				t.Fatalf("latency %v: round %d copied once per target, want once per round", lat, rounds[i].sent)
			}
			if copied := rounds[i].msg != &m.round; copied != (lat >= period) {
				t.Fatalf("latency %v, period %v: round message copied = %v", lat, period, copied)
			}
		}
	}
}

// TestDriveTickAllocFree: with every link faster than the period the
// tick path — Tick, route the round message, re-arm the timer, deliver —
// allocates nothing.
func TestDriveTickAllocFree(t *testing.T) {
	const period = 100 * time.Millisecond
	s, n := testNet(t, WithLatency(time.Millisecond, period/2))
	n.Attach("b", func(*gossip.Message) {})
	n.Attach("c", func(*gossip.Message) {})
	n.Drive(newRoundRewriter("a", false, "b", "c"), period, period)
	s.RunFor(10 * period) // warm the event slab
	if allocs := testing.AllocsPerRun(200, func() { s.RunFor(period) }); allocs != 0 {
		t.Fatalf("one driven round allocates %.1f times, want 0", allocs)
	}
	if st := n.Stats(); st.Delivered < 400 {
		t.Fatalf("only %d deliveries: the rounds did not run", st.Delivered)
	}
}

// TestDriveSkipsTicksWhileDown: a down node executes nothing, and comes
// back at its old phase.
func TestDriveSkipsTicksWhileDown(t *testing.T) {
	s, n := testNet(t)
	var ticks []time.Duration
	n.Drive(&scripted{id: "a", onTick: func(now time.Time) []gossip.Outgoing {
		ticks = append(ticks, now.Sub(Epoch))
		return nil
	}}, time.Second, 300*time.Millisecond)
	s.RunUntil(Epoch.Add(2 * time.Second))
	n.SetDown("a", true)
	s.RunUntil(Epoch.Add(4 * time.Second))
	n.SetDown("a", false)
	s.RunUntil(Epoch.Add(6 * time.Second))
	want := []time.Duration{300 * time.Millisecond, 1300 * time.Millisecond, 4300 * time.Millisecond, 5300 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", ticks, want)
		}
	}
}

func TestMaxLatency(t *testing.T) {
	_, n := testNet(t, WithLatency(time.Millisecond, 20*time.Millisecond),
		WithTopology(NewTwoTierTopology(2, LatencyClass{Max: 5 * time.Millisecond}, LatencyClass{Max: 80 * time.Millisecond})))
	if got := n.MaxLatency(); got != 80*time.Millisecond {
		t.Fatalf("MaxLatency = %v, want the slowest topology class, 80ms", got)
	}
	_, n = testNet(t)
	if got := n.MaxLatency(); got != 0 {
		t.Fatalf("MaxLatency of a zero-latency network = %v", got)
	}
}
