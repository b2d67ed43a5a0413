package runtime

import (
	"bytes"
	"encoding/binary"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/race"
	"adaptivegossip/internal/transport"
)

// checkingMachine is the Machine under the lease tests: Receive verifies
// that every payload still carries the pattern its event id implies
// (a buffer recycled under a live lease would not) and can be held shut
// to back the transport's receive queue up.
type checkingMachine struct {
	gate     chan struct{} // Receive blocks until closed
	received atomic.Uint64
	corrupt  atomic.Uint64
	borrowed atomic.Uint64
}

// patternPayload is the payload every test event carries: its sequence
// number repeated, so a reader can tell any other datagram's bytes.
func patternPayload(seq uint64) []byte {
	return bytes.Repeat(binary.BigEndian.AppendUint64(nil, seq), 16)
}

func (m *checkingMachine) ID() gossip.NodeID                { return "rx" }
func (m *checkingMachine) Tick(time.Time) []gossip.Outgoing { return nil }
func (m *checkingMachine) Receive(msg *gossip.Message, _ time.Time) []gossip.Outgoing {
	<-m.gate
	m.received.Add(1)
	if msg.Borrowed {
		m.borrowed.Add(1)
	}
	for _, ev := range msg.Events {
		if !bytes.Equal(ev.Payload, patternPayload(ev.ID.Seq)) {
			m.corrupt.Add(1)
		}
	}
	return nil
}

// TestInboundLeaseUnderOverflowAndClose hammers one UDPTransport →
// Runner pair through the borrowed receive path: senders blast datagrams
// while the machine is held shut, so the transport's receive queue
// overflows and releases leases nobody processed; then the machine
// opens and the transport and runner are torn down with traffic still
// in flight. A lease released twice panics (transport.Inbound.Release),
// a buffer recycled while its message was still being read shows up as
// a corrupt payload, and the goroutines must all exit. Run with -race
// -count=10.
func TestInboundLeaseUnderOverflowAndClose(t *testing.T) {
	before := goruntime.NumGoroutine()

	rx, err := transport.NewUDPTransport("rx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	machine := &checkingMachine{gate: make(chan struct{})}
	r, err := NewRunner(Config{Node: machine, Transport: rx, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.Start(); err != nil {
		t.Fatal(err)
	}
	r.Start()

	const senders = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var txs []*transport.UDPTransport
	for s := 0; s < senders; s++ {
		tx, err := transport.NewUDPTransport(gossip.NodeID([]byte{'t', 'x', byte('0' + s)}), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Register("rx", rx.Addr().String()); err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := uint64(s) << 32; ; seq += 3 {
				select {
				case <-stop:
					return
				default:
				}
				msg := &gossip.Message{From: tx.LocalID()}
				for i := uint64(0); i < 3; i++ {
					msg.Events = append(msg.Events, gossip.Event{
						ID: gossip.EventID{Origin: tx.LocalID(), Seq: seq + i}, Payload: patternPayload(seq + i),
					})
				}
				tx.Send("rx", msg) // errors after rx closes are the point of the test
			}
		}(s)
	}

	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Phase 1: machine shut — the receive queue fills and overflows.
	waitUntil("receive queue overflow", func() bool { return rx.Stats().RecvQueueDrops > 100 })
	// Phase 2: machine open — leases are processed and released while
	// new datagrams keep arriving.
	close(machine.gate)
	waitUntil("processed messages", func() bool { return machine.received.Load() > transport.DefaultRecvQueue+500 })
	// Phase 3: tear down mid-traffic, transport and runner at once.
	var down sync.WaitGroup
	down.Add(2)
	go func() { defer down.Done(); rx.Close() }()
	go func() { defer down.Done(); r.Stop() }()
	down.Wait()
	close(stop)
	wg.Wait()
	for _, tx := range txs {
		tx.Close()
	}

	if n := machine.corrupt.Load(); n != 0 {
		t.Fatalf("%d payloads were overwritten while their message was on lease", n)
	}
	if machine.borrowed.Load() != machine.received.Load() {
		t.Fatalf("%d of %d messages arrived borrowed; the runner is not on the InboundReceiver path",
			machine.borrowed.Load(), machine.received.Load())
	}
	if st := rx.Stats(); st.DecodeErrors != 0 {
		t.Fatalf("decode errors on well-formed traffic: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after teardown:\n%s",
				before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// roundMachine is the Machine under the hand-off test: every Tick emits
// the same round, one message to fanout targets and a control message
// to one of them, as a member's round does.
type roundMachine struct {
	round    []gossip.Outgoing
	received int
}

func (m *roundMachine) ID() gossip.NodeID                { return "rx" }
func (m *roundMachine) Tick(time.Time) []gossip.Outgoing { return m.round }
func (m *roundMachine) Receive(*gossip.Message, time.Time) []gossip.Outgoing {
	m.received++
	return nil
}

// TestRunnerHandoffAllocFree: a round leaving the runner — the Tick's
// fanout grouped and encoded once onto a UDP socket — and a message
// handed in under the runner's lock — the step every received message
// takes from the transport's delivery goroutine — allocate nothing.
// Measured on a started runner whose first tick is an hour away.
func TestRunnerHandoffAllocFree(t *testing.T) {
	tr, err := transport.NewUDPTransport("rx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// The targets are this endpoint's own address: the transport is not
	// started, so nothing reads what the round sends.
	targets := []gossip.NodeID{"a", "b", "c"}
	for _, id := range targets {
		if err := tr.Register(id, tr.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	msg := &gossip.Message{From: "rx", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "rx", Seq: 1}, Payload: patternPayload(1)},
		{ID: gossip.EventID{Origin: "rx", Seq: 2}, Payload: patternPayload(2)},
	}}
	ping := &gossip.Message{Kind: gossip.KindPing, From: "rx", Probe: "a"}
	machine := &roundMachine{}
	for _, id := range targets {
		machine.round = append(machine.round, gossip.Outgoing{To: id, Msg: msg})
	}
	machine.round = append(machine.round, gossip.Outgoing{To: "a", Msg: ping})
	r, err := NewRunner(Config{Node: machine, Transport: tr, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	r.tick() // sizes the grouping scratch and the endpoint's send buffer
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		r.tick()
		r.receive(msg)
	})
	if allocs != 0 {
		t.Fatalf("a round out and a message in allocate %v times, want 0", allocs)
	}
	if st := tr.Stats(); st.SendErrors != 0 || st.Sent != 4*(runs+2) || machine.received != runs+1 {
		t.Fatalf("transport %+v, %d received: the round did not go out or the messages did not come in", st, machine.received)
	}
}

// TestRunnerDoAllocFree: a Do call — the step every Publish, Stats and
// SetBufferCapacity takes under the runner's lock — allocates nothing:
// no channel and no wrapper per call. Measured on a started runner that
// is otherwise idle (AllocsPerRun counts the whole process), with fn
// built once as the callers that matter do.
func TestRunnerDoAllocFree(t *testing.T) {
	ep, err := transport.NewUDPTransport("rx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	r, err := NewRunner(Config{Node: &checkingMachine{}, Transport: ep, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	ran := 0
	fn := func() { ran++ }
	if !r.Do(fn) { // warm-up
		t.Fatal("Do on a running runner reported false")
	}
	allocs := testing.AllocsPerRun(200, func() { r.Do(fn) })
	if ran != 202 {
		t.Fatalf("fn ran %d times for 202 Do calls", ran)
	}
	// Allocation counts are exact only without the race detector.
	if allocs != 0 && !race.Enabled {
		t.Fatalf("Do allocates %v times per call, want 0", allocs)
	}
}

// exclusiveMachine counts every entry into Tick, Receive and occupy
// (what the Do callers run) and every entry that overlapped another.
type exclusiveMachine struct {
	inside   atomic.Bool
	overlaps atomic.Uint64
	ticks    atomic.Uint64
	receives atomic.Uint64
	dos      atomic.Uint64
	entries  int // unsynchronized: a data race under -race unless serialized
}

func (m *exclusiveMachine) ID() gossip.NodeID { return "rx" }

func (m *exclusiveMachine) Tick(time.Time) []gossip.Outgoing {
	m.occupy()
	m.ticks.Add(1)
	return nil
}

func (m *exclusiveMachine) Receive(*gossip.Message, time.Time) []gossip.Outgoing {
	m.occupy()
	m.receives.Add(1)
	return nil
}

// occupy holds the machine for a moment, yielding so that an entry
// the runner failed to serialize lands inside the window.
func (m *exclusiveMachine) occupy() {
	if !m.inside.CompareAndSwap(false, true) {
		m.overlaps.Add(1)
		return
	}
	m.entries++
	goruntime.Gosched()
	m.inside.Store(false)
}

// TestRunnerSerializesMachine: ticks (1 ms period), receives from a UDP
// flood and four goroutines calling Do all reach the Machine, and never
// two at a time. Run with -race -count=10.
func TestRunnerSerializesMachine(t *testing.T) {
	rx, err := transport.NewUDPTransport("rx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := transport.NewUDPTransport("tx", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if err := tx.Register("rx", rx.Addr().String()); err != nil {
		t.Fatal(err)
	}
	machine := &exclusiveMachine{}
	r, err := NewRunner(Config{Node: machine, Transport: rx, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	if err := rx.Start(); err != nil {
		t.Fatal(err)
	}

	const callers, enough = 4, 200
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + callers)
	go func() {
		defer wg.Done()
		msg := &gossip.Message{From: "tx", Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "tx", Seq: 1}, Payload: patternPayload(1)},
		}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx.Send("rx", msg)
			time.Sleep(20 * time.Microsecond)
		}
	}()
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Do(func() {
					machine.occupy()
					machine.dos.Add(1)
				})
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for machine.ticks.Load() < enough/4 || machine.receives.Load() < enough || machine.dos.Load() < enough {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	r.Stop()

	ticks, receives, dos := machine.ticks.Load(), machine.receives.Load(), machine.dos.Load()
	if n := machine.overlaps.Load(); n != 0 {
		t.Fatalf("%d of %d entries into the machine overlapped another", n, ticks+receives+dos)
	}
	if ticks < enough/4 || receives < enough || dos < enough {
		t.Fatalf("only %d ticks, %d receives and %d Do calls reached the machine in 10 s", ticks, receives, dos)
	}
	if machine.entries != int(ticks+receives+dos) {
		t.Fatalf("%d entries recorded for %d ticks, receives and Do calls", machine.entries, ticks+receives+dos)
	}
}

// TestStoppedRunnerDiscardsAndCounts: a datagram that reaches a
// runner's endpoint before Start or after Stop never reaches the
// Machine; its lease is released at once and it is counted in
// InboxDropped.
func TestStoppedRunnerDiscardsAndCounts(t *testing.T) {
	for _, state := range []string{"before Start", "after Stop"} {
		t.Run(state, func(t *testing.T) {
			rx, err := transport.NewUDPTransport("rx", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			tx, err := transport.NewUDPTransport("tx", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			if err := tx.Register("rx", rx.Addr().String()); err != nil {
				t.Fatal(err)
			}
			machine := &checkingMachine{gate: make(chan struct{})}
			close(machine.gate)
			r, err := NewRunner(Config{Node: machine, Transport: rx, Period: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if state == "after Stop" {
				r.Start()
				r.Stop()
			}
			if err := rx.Start(); err != nil {
				t.Fatal(err)
			}
			msg := &gossip.Message{From: "tx", Events: []gossip.Event{
				{ID: gossip.EventID{Origin: "tx", Seq: 1}, Payload: patternPayload(1)},
			}}
			const sent = 3
			for i := 0; i < sent; i++ {
				if err := tx.Send("rx", msg); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for r.Stats().InboxDropped < sent {
				if time.Now().After(deadline) {
					t.Fatalf("InboxDropped = %d after %d datagrams reached a runner %s (transport %+v)",
						r.Stats().InboxDropped, sent, state, rx.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			if n := machine.received.Load(); n != 0 {
				t.Fatalf("the machine received %d messages %s", n, state)
			}
		})
	}
}
