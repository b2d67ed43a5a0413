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
// to back the inbox up.
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
// while the machine is held shut, so the inbox overflows and the runner
// releases leases it never processed; then the machine opens and the
// transport and runner are torn down with traffic still in flight. A
// lease released twice panics (transport.Inbound.Release), a buffer
// recycled while its message was still being read shows up as a corrupt
// payload, and the loops must all exit. Run with -race -count=10.
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
	// Phase 1: machine shut — the inbox fills and overflows.
	waitUntil("inbox overflow", func() bool { return r.Stats().InboxDropped > 100 })
	// Phase 2: machine open — leases are processed and released while
	// new datagrams keep arriving.
	close(machine.gate)
	waitUntil("processed messages", func() bool { return machine.received.Load() > DefaultInboxSize+500 })
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

// TestRunnerHandoffAllocFree: a round leaving the loop — the Tick's
// fanout grouped and encoded once onto a UDP socket — and a message
// queued for the loop and taken off again — the goroutine hop every
// received message makes — allocate nothing; the lease travels by value
// next to the message.
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
	r.tick() // sizes the grouping scratch and the pooled send buffer
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		r.tick()
		r.enqueue(delivery{msg: msg})
		r.receive(<-r.inbox)
	})
	// Under the race detector the send buffers' sync.Pool drops a quarter
	// of what is Put.
	if allocs != 0 && !race.Enabled {
		t.Fatalf("a round out and a message in allocate %v times, want 0", allocs)
	}
	if st := r.Stats(); st.SendErrors != 0 || st.MessagesMoved != 4*(runs+2) || machine.received != runs+1 {
		t.Fatalf("runner %+v, %d received: the round did not go out or the messages did not come in", st, machine.received)
	}
}

// TestRunnerDoAllocFree: a Do call — the hop every Publish, Stats and
// SetBufferCapacity makes into the loop — allocates nothing once a
// request is in the pool: no channel and no wrapper per call. Measured
// on a started runner that is otherwise idle (AllocsPerRun counts the
// whole process), with fn built once as the callers that matter do.
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
	if !r.Do(fn) { // warm-up: the first request is made here
		t.Fatal("Do on a running runner reported false")
	}
	allocs := testing.AllocsPerRun(200, func() { r.Do(fn) })
	if ran != 202 {
		t.Fatalf("fn ran %d times for 202 Do calls", ran)
	}
	// Under the race detector sync.Pool drops a quarter of what is Put.
	if allocs != 0 && !race.Enabled {
		t.Fatalf("Do allocates %v times per call, want 0", allocs)
	}
}
