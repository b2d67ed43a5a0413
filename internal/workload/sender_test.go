package workload

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/sim"
)

func TestSenderConfigValidate(t *testing.T) {
	const badRate = "rate must be finite and non-negative"
	for _, tc := range []struct {
		name string
		cfg  SenderConfig
		want string // a part of the error; "" for a valid config
	}{
		{"negative rate", SenderConfig{Rate: -1}, badRate},
		{"NaN rate", SenderConfig{Rate: math.NaN()}, badRate},
		{"infinite rate", SenderConfig{Rate: math.Inf(1)}, badRate},
		{"negative infinite rate", SenderConfig{Rate: math.Inf(-1)}, badRate},
		{"negative payload", SenderConfig{PayloadSize: -1}, "payload size must be non-negative"},
		{"zero rate", SenderConfig{}, ""},
		{"rate and payload", SenderConfig{Rate: 5, PayloadSize: 8}, ""},
	} {
		err := tc.cfg.Validate()
		if tc.want == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// clock is the Sender's one dependency as a test sees it: after to
// schedule on, pass to let time go by (running what falls due). Every
// sender case runs on both: the discrete-event scheduler, where counts
// are exact, and wall-clock timers, where they are bounded loosely
// because a loaded machine fires timers late.
type clock struct {
	name  string
	after func(time.Duration, func())
	pass  func(time.Duration)
}

func simClock() clock {
	sched := sim.NewScheduler(sim.Epoch)
	return clock{"sim", func(d time.Duration, fn func()) { sched.After(d, fn) }, sched.RunFor}
}

func wallClock() clock {
	return clock{"wall", func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }, time.Sleep}
}

// settle stops s and lets an emission already under way finish (wall
// timers run on their own goroutines), so counters can be compared.
func settle(c clock, s *Sender) {
	s.Stop()
	c.pass(20 * time.Millisecond)
}

func TestSimSenderEmitsAtRate(t *testing.T) {
	for _, tc := range []struct {
		clock  clock
		rate   float64
		run    time.Duration
		lo, hi int64 // ≈100 emissions, ±1 for phase on the exact clock
	}{
		{simClock(), 10, 10 * time.Second, 98, 101},
		{wallClock(), 200, 500 * time.Millisecond, 30, 101},
	} {
		t.Run(tc.clock.name, func(t *testing.T) {
			var got atomic.Int64
			s, err := StartSender(tc.clock.after, SenderConfig{Rate: tc.rate, PayloadSize: 4},
				func(p []byte) bool {
					if len(p) != 4 {
						t.Errorf("payload size %d", len(p))
					}
					got.Add(1)
					return true
				}, sim.DeriveRNG(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			tc.clock.pass(tc.run)
			settle(tc.clock, s)
			if n := got.Load(); n < tc.lo || n > tc.hi {
				t.Fatalf("emitted %d, want %d..%d", n, tc.lo, tc.hi)
			}
			st := s.Stats()
			if n := uint64(got.Load()); st.Offered != n || st.Admitted != n {
				t.Fatalf("stats %+v after %d emissions", st, n)
			}
		})
	}
}

func TestSimSenderCountsRejections(t *testing.T) {
	for _, tc := range []struct {
		clock clock
		rate  float64
		run   time.Duration
	}{
		{simClock(), 5, 10 * time.Second},
		{wallClock(), 100, 300 * time.Millisecond},
	} {
		t.Run(tc.clock.name, func(t *testing.T) {
			admit := false // emissions are sequential: each arms the next
			s, err := StartSender(tc.clock.after, SenderConfig{Rate: tc.rate},
				func([]byte) bool {
					admit = !admit
					return admit
				}, sim.DeriveRNG(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			tc.clock.pass(tc.run)
			settle(tc.clock, s)
			st := s.Stats()
			if st.Offered == 0 || st.Admitted*2 < st.Offered-1 || st.Admitted*2 > st.Offered+1 {
				t.Fatalf("stats %+v, want ≈half admitted", st)
			}
		})
	}
}

func TestSimSenderPoissonApproximatesRate(t *testing.T) {
	for _, tc := range []struct {
		clock  clock
		rate   float64
		run    time.Duration
		lo, hi uint64
	}{
		// 20 msg/s × 60 s = 1200 expected; Poisson std ≈ 35.
		{simClock(), 20, 60 * time.Second, 1050, 1350},
		// 100 expected, std 10; late timers only lower the count.
		{wallClock(), 200, 500 * time.Millisecond, 25, 140},
	} {
		t.Run(tc.clock.name, func(t *testing.T) {
			s, err := StartSender(tc.clock.after, SenderConfig{Rate: tc.rate, Poisson: true},
				func([]byte) bool { return true }, sim.DeriveRNG(3, 3))
			if err != nil {
				t.Fatal(err)
			}
			tc.clock.pass(tc.run)
			settle(tc.clock, s)
			if got := s.Stats().Offered; got < tc.lo || got > tc.hi {
				t.Fatalf("emitted %d, want %d..%d", got, tc.lo, tc.hi)
			}
		})
	}
}

func TestSimSenderStop(t *testing.T) {
	for _, tc := range []struct {
		clock clock
		rate  float64
		run   time.Duration
	}{
		{simClock(), 10, time.Second},
		{wallClock(), 200, 100 * time.Millisecond},
	} {
		t.Run(tc.clock.name, func(t *testing.T) {
			s, err := StartSender(tc.clock.after, SenderConfig{Rate: tc.rate},
				func([]byte) bool { return true }, sim.DeriveRNG(4, 4))
			if err != nil {
				t.Fatal(err)
			}
			tc.clock.pass(tc.run)
			settle(tc.clock, s)
			before := s.Stats().Offered
			if before == 0 {
				t.Fatal("nothing emitted before Stop")
			}
			tc.clock.pass(9 * tc.run)
			if after := s.Stats().Offered; after != before {
				t.Fatalf("sender emitted after Stop: %d -> %d", before, after)
			}
		})
	}
}

func TestSimSenderZeroRateNeverEmits(t *testing.T) {
	for _, tc := range []struct {
		clock clock
		run   time.Duration
	}{
		{simClock(), time.Minute},
		{wallClock(), 20 * time.Millisecond},
	} {
		t.Run(tc.clock.name, func(t *testing.T) {
			s, err := StartSender(tc.clock.after, SenderConfig{Rate: 0},
				func([]byte) bool { t.Error("zero-rate sender emitted"); return true }, sim.DeriveRNG(5, 5))
			if err != nil {
				t.Fatal(err)
			}
			tc.clock.pass(tc.run)
			s.Stop()
		})
	}
}

func TestSimSenderValidation(t *testing.T) {
	after, publish, rng := simClock().after, func([]byte) bool { return true }, sim.DeriveRNG(1, 1)
	if _, err := StartSender(nil, SenderConfig{Rate: 1}, publish, rng); err == nil {
		t.Fatal("nil after accepted")
	}
	if _, err := StartSender(after, SenderConfig{Rate: 1}, nil, rng); err == nil {
		t.Fatal("nil publish accepted")
	}
	if _, err := StartSender(after, SenderConfig{Rate: 1}, publish, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := StartSender(after, SenderConfig{Rate: -2}, publish, rng); err == nil {
		t.Fatal("bad config accepted")
	}
}

// TestTimedSenderEmitsAndStops: the caller's side of a running sender —
// wait for emissions, read Stats and Stop (twice) from a goroutine that
// is not the one emitting.
func TestTimedSenderEmitsAndStops(t *testing.T) {
	for _, c := range []clock{simClock(), wallClock()} {
		t.Run(c.name, func(t *testing.T) {
			got := make(chan struct{}, 1000)
			s, err := StartSender(c.after, SenderConfig{Rate: 200},
				func([]byte) bool {
					select {
					case got <- struct{}{}:
					default:
					}
					return true
				}, sim.DeriveRNG(7, 7))
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(3 * time.Second); len(got) < 5; c.pass(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("sender too slow")
				}
				_ = s.Stats() // concurrent with the emitting goroutine on the wall clock
			}
			s.Stop()
			s.Stop() // idempotent
			if st := s.Stats(); st.Offered < 5 || st.Admitted < 5 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// TestTimedSenderValidation: a real-time caller's after is a
// time.AfterFunc wrapper; the checks are the same ones.
func TestTimedSenderValidation(t *testing.T) {
	after, rng := wallClock().after, sim.DeriveRNG(1, 1)
	if _, err := StartSender(after, SenderConfig{Rate: 1}, nil, rng); err == nil {
		t.Fatal("nil publish accepted")
	}
	if _, err := StartSender(after, SenderConfig{Rate: -1}, func([]byte) bool { return true }, rng); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestResizeValidate(t *testing.T) {
	ok := Resize{At: time.Second, Nodes: []int{0, 5}, Capacity: 10}
	if err := ok.Validate(10); err != nil {
		t.Fatal(err)
	}
	cases := []Resize{
		{At: -time.Second, Capacity: 10},
		{At: 0, Capacity: 0},
		{At: 0, Capacity: 5, Nodes: []int{-1}},
		{At: 0, Capacity: 5, Nodes: []int{10}},
	}
	for i, r := range cases {
		if err := r.Validate(10); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
}

func TestCrashAndJoinValidate(t *testing.T) {
	if err := (Crash{At: time.Second, Nodes: []int{0}}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (Crash{At: -1, Nodes: []int{0}}).Validate(4); err == nil {
		t.Fatal("negative crash offset accepted")
	}
	if err := (Crash{Nodes: []int{4}}).Validate(4); err == nil {
		t.Fatal("out-of-range crash index accepted")
	}
	if err := (Join{At: time.Second, Nodes: []int{3}}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (Join{At: -1}).Validate(4); err == nil {
		t.Fatal("negative join offset accepted")
	}
	if err := (Join{Nodes: []int{-1}}).Validate(4); err == nil {
		t.Fatal("negative join index accepted")
	}
}

func TestFirstFraction(t *testing.T) {
	if got := FirstFraction(60, 0.2); len(got) != 12 || got[0] != 0 || got[11] != 11 {
		t.Fatalf("FirstFraction(60, 0.2) = %v", got)
	}
	if got := FirstFraction(10, 0); len(got) != 0 {
		t.Fatalf("zero fraction: %v", got)
	}
	if got := FirstFraction(10, 2.0); len(got) != 10 {
		t.Fatalf("overshoot fraction: %v", got)
	}
	if got := FirstFraction(10, -1); len(got) != 0 {
		t.Fatalf("negative fraction: %v", got)
	}
}

func TestRestartValidate(t *testing.T) {
	if err := (Restart{At: time.Second, Nodes: []int{1}}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (Restart{At: -1}).Validate(4); err == nil {
		t.Fatal("negative restart offset accepted")
	}
	if err := (Restart{Nodes: []int{4}}).Validate(4); err == nil {
		t.Fatal("out-of-range restart index accepted")
	}
}

func TestChurnTraceShape(t *testing.T) {
	const n = 20
	down := 60 * time.Second
	crashes, restarts := ChurnTrace(n, 2.0/60, down, 30*time.Second, 300*time.Second, 7)
	if len(crashes) == 0 {
		t.Fatal("empty trace at 2 events/min over 5 minutes")
	}
	if len(crashes) != len(restarts) {
		t.Fatalf("%d crashes but %d restarts", len(crashes), len(restarts))
	}
	downAt := make(map[int]time.Duration)
	for i, c := range crashes {
		if err := c.Validate(n); err != nil {
			t.Fatal(err)
		}
		if len(c.Nodes) != 1 || c.Nodes[0] == 0 {
			t.Fatalf("crash %d hits %v; node 0 must be spared", i, c.Nodes)
		}
		if i > 0 && c.At < crashes[i-1].At {
			t.Fatal("crashes out of time order")
		}
		// No node is crashed while already down.
		if until, isDown := downAt[c.Nodes[0]]; isDown && c.At < until {
			t.Fatalf("node %d crashed at %v while down until %v", c.Nodes[0], c.At, until)
		}
		downAt[c.Nodes[0]] = c.At + down
	}
	for i, r := range restarts {
		if r.At != crashes[i].At+down {
			t.Fatalf("restart %d at %v, want crash+%v", i, r.At, down)
		}
	}
	// Determinism: same seed, same trace.
	c2, r2 := ChurnTrace(n, 2.0/60, down, 30*time.Second, 300*time.Second, 7)
	if len(c2) != len(crashes) || len(r2) != len(restarts) {
		t.Fatal("trace not deterministic")
	}
	for i := range c2 {
		if c2[i].At != crashes[i].At || c2[i].Nodes[0] != crashes[i].Nodes[0] {
			t.Fatal("trace not deterministic")
		}
	}
	// A different seed should differ.
	c3, _ := ChurnTrace(n, 2.0/60, down, 30*time.Second, 300*time.Second, 8)
	same := len(c3) == len(crashes)
	if same {
		for i := range c3 {
			if c3[i].At != crashes[i].At || c3[i].Nodes[0] != crashes[i].Nodes[0] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestChurnTraceDegenerate(t *testing.T) {
	if c, r := ChurnTrace(1, 1, time.Second, 0, time.Minute, 1); c != nil || r != nil {
		t.Fatal("n=1 should yield no trace")
	}
	if c, r := ChurnTrace(10, 0, time.Second, 0, time.Minute, 1); c != nil || r != nil {
		t.Fatal("rate=0 should yield no trace")
	}
}
