package e2e

import (
	"testing"
	"time"
)

// lateClock is a generator clock whose sleeps overshoot, as a stalled
// generator's would.
type lateClock struct {
	now       time.Duration
	overshoot time.Duration
}

func (c *lateClock) Now() time.Duration { return c.now }
func (c *lateClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t + c.overshoot
	}
}

// An open loop times each publish from when it was due, not from when
// the generator got to it: a stall delays the publishes behind it, they
// go out at once in a burst, and every one of them reports the wait.
func TestDriveAccountsForALateGenerator(t *testing.T) {
	ms := time.Millisecond
	sched := &Schedule{
		Events: []Publish{
			{Due: 10 * ms, Member: 0},
			{Due: 11 * ms, Member: 1},
			{Due: 12 * ms, Member: 2},
			{Due: 40 * ms, Member: 3},
		},
		WindowStart: 5 * ms,
		WindowEnd:   50 * ms,
	}
	clk := &lateClock{overshoot: 5 * ms}
	var order []int
	var markAt []time.Duration
	log := drive(clk, sched, func(member int, _ []byte) bool {
		order = append(order, member)
		clk.now += 3 * ms // the call itself takes three milliseconds
		return member != 2
	}, []time.Duration{30 * ms, 50 * ms}, func(k int) {
		markAt = append(markAt, clk.now)
	})

	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("publishes went out as %v", order)
	}
	// Event 0 is reached 5 ms late (the sleep overshot) and takes 3 ms.
	// Events 1 and 2 fell due meanwhile: no sleep, sent at once, and
	// their lag is what the backlog ahead of them cost. Event 3 is due
	// long after and only pays its own overshoot.
	wantLag := []time.Duration{5 * ms, 7 * ms, 9 * ms, 5 * ms}
	for i, want := range wantLag {
		if log.lag[i] != want {
			t.Errorf("event %d: lag %v, want %v", i, log.lag[i], want)
		}
		if log.call[i] != 3*ms {
			t.Errorf("event %d: call took %v, want 3ms", i, log.call[i])
		}
	}
	if log.admitted[2] || !log.admitted[0] {
		t.Errorf("admitted = %v", log.admitted)
	}
	// The marks run in the generator's goroutine, each once, in order,
	// and the one between events runs before the later event.
	if len(markAt) != 2 || markAt[0] != 35*ms || markAt[1] != 55*ms {
		t.Errorf("marks ran at %v", markAt)
	}
}
