package traced

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptivegossip/bench/e2e"
)

const (
	// maxTracedRounds caps the rounds that record spans (the warm-up
	// before them runs unrecorded), which keeps the span file a few
	// megabytes.
	maxTracedRounds = 300
	// arrivalTimeout is how long the driver waits for a datagram it
	// wrote before counting it in udp.trace_lost.
	arrivalTimeout = 50 * time.Millisecond
	// probeMessages is how many captured messages the runner probe
	// replays; frameSamples how many encoded frames the allocation pass
	// decodes.
	probeMessages = 1200
	frameSamples  = 128
)

// member is one group member under the lockstep driver: the real state
// machine over a real UDP endpoint (nil without a wire), with the
// runtime's own send path.
type member struct {
	id     nodeID
	node   *node
	ep     *endpoint
	sender groupSender
	encBuf []byte
}

// arrival is one decoded message as the transport's handler saw it.
type arrival struct {
	to  int
	msg *message
	at  int64 // tracer clock
}

// stamp remembers a send so the matching arrival can be timed from it.
type stamp struct {
	returned int64 // tracer clock when SendMany returned
	span     int32
}

// counts are the traced run's tallies over the recorded rounds.
type counts struct {
	memberRounds     int64
	publishes        int64
	admitted         int64
	deliveries       int64
	remoteDeliveries int64
	roundMsgs        int64
	roundEvents      int64
	recvMsgs         int64
	recvEvents       int64
	datagrams        int64
	lost             int64
	encodedBytes     int64
	encodedEvents    int64
	decompRaw        int64
	falseConfirms    int64
}

// driver runs a workload's generated schedule through the layers in
// lockstep: virtual time advances one period per round with no
// sleeping, so the token bucket and the rate controller see the same
// clock they would in real time, while every call is made, and timed,
// by this one goroutine.
type driver struct {
	w       e2e.Workload
	tr      *Tracer
	round   uint64
	start   time.Time
	members []*member
	names   []nodeID
	index   map[nodeID]int
	codec   codec
	comp    *timedCompressor
	lossRNG *rand.Rand

	mu       sync.Mutex
	inbox    []arrival
	arrived  atomic.Int64
	expected int64
	notify   chan struct{}

	inflight [][]stamp // [from*n+to], oldest first
	recvPath []int64
	scratch  []outgoing

	c        counts
	captured []*message
	frames   [][]byte
}

func newDriver(w e2e.Workload, tr *Tracer) (*driver, error) {
	d := &driver{
		w:        w,
		tr:       tr,
		start:    time.Now(),
		index:    map[nodeID]int{},
		lossRNG:  rand.New(rand.NewPCG(0x1055, 0x1055)),
		notify:   make(chan struct{}, 1),
		inflight: make([][]stamp, w.N*w.N),
	}
	comp, err := newTimedCompressor(w.Compression, tr, &d.round)
	if err != nil {
		return nil, err
	}
	d.comp = comp
	d.codec = newCodec(comp)

	names := make([]nodeID, w.N)
	for i := range names {
		names[i] = nodeID(fmt.Sprintf("node-%02d", i))
		d.index[names[i]] = i
	}
	d.names = names
	gp := gossipParams{Fanout: w.Fanout, Period: w.Period, MaxEvents: w.Buffer, MaxAge: w.MaxAge}
	var shared *registry
	if !w.Extensions {
		shared = newRegistry(names)
	}
	for i, name := range names {
		m := &member{id: name}
		// As in the cluster facade: with failure detection every member
		// owns its view, so a verdict evicts from that member's gossip
		// targets only.
		reg := shared
		if w.Extensions {
			reg = newRegistry(names)
		}
		spec := nodeSpec{
			id:          name,
			gossip:      gp,
			adaptive:    w.Adaptive,
			initialRate: w.InitialRate,
			recovery:    recoveryOn(w.Extensions),
			failure:     failureOn(w.Extensions, w.SuspicionRounds),
			health:      healthOn(w.Extensions),
			onMembership: func(peer nodeID, status memberStatus) {
				switch status {
				case memberConfirmed:
					d.c.falseConfirms++ // nobody crashes
					reg.Remove(peer)
				case memberAlive:
					reg.Add(peer)
				}
			},
			peers: &timedSampler{inner: reg, tr: tr, round: &d.round},
			rng:   rand.New(rand.NewPCG(1, uint64(i)+1)),
			deliver: func(ev event) {
				if !tr.on {
					return
				}
				d.c.deliveries++
				if ev.ID.Origin != name {
					d.c.remoteDeliveries++
				}
			},
			start: d.start,
		}
		if w.Sim {
			// The simulator's sender setting: start at the sender's
			// share of the offered load, with headroom of twice that.
			spec.initialRate = w.OfferedRate / float64(w.N)
			spec.maxRate = 2 * spec.initialRate
		}
		n, err := newNode(spec)
		if err != nil {
			d.close()
			return nil, err
		}
		m.node = n
		if !w.Sim {
			ep, err := newEndpoint(name, d.codec)
			if err != nil {
				d.close()
				return nil, err
			}
			m.ep = ep
		}
		d.members = append(d.members, m)
	}
	if w.Sim {
		return d, nil
	}
	for i, m := range d.members {
		for _, other := range d.members {
			if other != m {
				if err := m.ep.Register(other.id, other.ep.Addr().String()); err != nil {
					d.close()
					return nil, err
				}
			}
		}
		m.ep.SetHandler(func(msg *message) { d.onArrival(i, msg) })
		if err := m.ep.Start(); err != nil {
			d.close()
			return nil, err
		}
	}
	if w.ShrinkTo > 0 {
		if err := d.members[0].node.SetBufferCapacity(w.ShrinkTo); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// close stops every endpoint's read and dispatch goroutines and waits
// for them.
func (d *driver) close() {
	for _, m := range d.members {
		if m.ep != nil {
			m.ep.Close()
		}
	}
}

// onArrival is the transports' handler. It runs on the receiving
// endpoint's dispatch goroutine: stamp, queue, wake the driver.
func (d *driver) onArrival(to int, msg *message) {
	at := d.tr.now()
	d.mu.Lock()
	d.inbox = append(d.inbox, arrival{to: to, msg: msg, at: at})
	d.mu.Unlock()
	d.arrived.Add(1)
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// await blocks, in a span so the wait is not taken for work, until
// every datagram written so far has reached a handler.
func (d *driver) await() {
	// The span is opened even when nothing is left to wait for, so that
	// the number of spans does not depend on timing.
	id := d.tr.Begin("wait", d.round)
	deadline := time.NewTimer(arrivalTimeout)
	defer deadline.Stop()
	for d.arrived.Load() < d.expected {
		select {
		case <-d.notify:
		case <-deadline.C:
			if missing := d.expected - d.arrived.Load(); missing > 0 {
				if d.tr.on {
					d.c.lost += missing
				}
				d.expected -= missing
			}
		}
	}
	d.tr.End(id)
}

// send transmits a member's outgoings the way the runtime does, through
// GroupSender into the endpoint's SendMany (one encode, F sendto), then
// waits for the datagrams to land. The injected loss is applied here,
// seeded, in place of the transport's own, so that which datagrams are
// written is known and repeats.
func (d *driver) send(from int, outs []outgoing, span string) {
	if d.w.Loss > 0 {
		kept := d.scratch[:0]
		for _, o := range outs {
			if d.lossRNG.Float64() >= d.w.Loss {
				kept = append(kept, o)
			}
		}
		d.scratch, outs = kept, kept
	}
	if len(outs) == 0 {
		return
	}
	m := d.members[from]
	before := m.ep.Stats().Sent
	id := d.tr.Begin(span, d.round)
	m.sender.SendGroups(m.ep, outs)
	d.tr.End(id)
	returned := d.tr.now()
	wrote := int64(m.ep.Stats().Sent - before)
	for _, o := range outs {
		pair := from*d.w.N + d.index[o.To]
		d.inflight[pair] = append(d.inflight[pair], stamp{returned: returned, span: id})
	}
	if d.tr.on {
		d.c.datagrams += wrote
	}
	d.expected += wrote
	d.await()
}

// shadow repeats the codec's work on a member's round message outside
// the transport, where it can be timed alone: AppendEncode, then Decode
// of the bytes just produced, then the decompression of the frame the
// compressor saw last.
func (d *driver) shadow(m *member, outs []outgoing) error {
	var msg *message
	for _, o := range outs {
		if isRoundMessage(o.Msg) {
			msg = o.Msg
			break
		}
	}
	if msg == nil {
		return nil
	}
	id := d.tr.Begin("codec.encode", d.round)
	buf, err := d.codec.AppendEncode(m.encBuf[:0], msg)
	d.tr.End(id)
	if err != nil {
		return err
	}
	m.encBuf = buf
	if d.comp != nil {
		if err := d.comp.shadowDecompress(); err != nil {
			return err
		}
		if d.tr.on {
			d.c.decompRaw += int64(d.comp.lastRaw)
		}
	}
	id = d.tr.Begin("codec.decode", d.round)
	_, err = d.codec.Decode(buf)
	d.tr.End(id)
	if err != nil {
		return err
	}
	if d.tr.on {
		d.c.encodedBytes += int64(len(buf))
		d.c.encodedEvents += int64(len(msg.Events))
		if len(d.frames) < frameSamples {
			d.frames = append(d.frames, slices.Clone(buf))
		}
	}
	return nil
}

// receive hands one arrived message to its member and sends whatever
// control traffic the extensions answer with.
func (d *driver) receive(a arrival, now time.Time) {
	from := d.index[a.msg.From]
	if q := d.inflight[from*d.w.N+a.to]; len(q) > 0 {
		s := q[0]
		d.inflight[from*d.w.N+a.to] = q[1:]
		if d.tr.on && s.span >= 0 {
			d.recvPath = append(d.recvPath, a.at-s.returned)
			d.tr.Add(Span{Name: "udp.recv_path", Start: s.returned, End: a.at, Parent: s.span, Trace: d.round})
		}
	}
	m := d.members[a.to]
	id := d.tr.Begin("core.receive", d.round)
	outs := m.node.Receive(a.msg, now)
	d.tr.End(id)
	if d.tr.on {
		d.c.recvMsgs++
		d.c.recvEvents += int64(len(a.msg.Events))
		if isRoundMessage(a.msg) && len(d.captured) < probeMessages {
			d.captured = append(d.captured, a.msg)
		}
	}
	if len(outs) > 0 {
		d.send(a.to, outs, "udp.send_reply")
	}
}

// receiveAll processes arrivals until none is left, replies included.
// Within a batch, arrivals are ordered by receiver, then sender, each
// pair in arrival order, so the members see the same sequence on every
// run whichever dispatch goroutine got to the queue first.
func (d *driver) receiveAll(now time.Time) {
	for {
		d.mu.Lock()
		batch := d.inbox
		d.inbox = nil
		d.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		slices.SortStableFunc(batch, func(a, b arrival) int {
			if a.to != b.to {
				return a.to - b.to
			}
			return d.index[a.msg.From] - d.index[b.msg.From]
		})
		for _, a := range batch {
			d.receive(a, now)
		}
	}
}

// runRound is one lockstep round r: the members tick one after the
// other, and what a member sent is received (and answered) before the
// next one ticks, then the publishes that fall due before the next
// round are made at their due instants. Receiving at once matters: the
// real runners tick at staggered phases, so an event crosses several
// members, and ages several times, within one period. Ticking all
// members before any receive would age events once per round, keep them
// buffered about four times longer, and make every message four times
// the size the real group sends.
func (d *driver) runRound(r int, due []e2e.Publish) error {
	d.round = uint64(r)
	now := d.start.Add(time.Duration(r) * d.w.Period)
	root := d.tr.Begin("round", d.round)
	for i, m := range d.members {
		id := d.tr.Begin("core.tick", d.round)
		outs := m.node.Tick(now)
		d.tr.End(id)
		if d.tr.on {
			d.c.memberRounds++
			for _, o := range outs {
				if isRoundMessage(o.Msg) {
					d.c.roundMsgs++
					d.c.roundEvents += int64(len(o.Msg.Events))
				}
			}
		}
		if d.w.Sim {
			// No wire: the message is handed over by pointer, within
			// the round, as the simulator's fabric does.
			for _, o := range outs {
				to := d.index[o.To]
				if d.tr.on && len(d.captured) < probeMessages {
					d.captured = append(d.captured, o.Msg.CopyForSend())
				}
				id := d.tr.Begin("core.receive", d.round)
				d.members[to].node.Receive(o.Msg, now)
				d.tr.End(id)
				if d.tr.on {
					d.c.recvMsgs++
					d.c.recvEvents += int64(len(o.Msg.Events))
				}
			}
			continue
		}
		if err := d.shadow(m, outs); err != nil {
			return err
		}
		d.send(i, outs, "udp.send_many")
		d.receiveAll(now)
	}
	for _, p := range due {
		id := d.tr.Begin("core.publish", binary.BigEndian.Uint64(p.Payload))
		_, ok := d.members[p.Member].node.Publish(p.Payload, d.start.Add(p.Due))
		d.tr.End(id)
		if d.tr.on {
			d.c.publishes++
			if ok {
				d.c.admitted++
			}
		}
	}
	d.tr.End(root)
	return nil
}
