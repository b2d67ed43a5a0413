package e2e

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	ag "adaptivegossip"
)

// oracleFixture is a three-member run with one event due in each third
// of a 3 s window, published 2 ms late, every delivery 10 ms after the
// event was due.
func oracleFixture(t *testing.T) (Workload, *Schedule, *recorder, publishLog, []snapshot) {
	t.Helper()
	w := Workload{Name: "fixture", N: 3, PayloadBytes: 32, OfferedRate: 1, Period: 20 * time.Millisecond}
	sched := &Schedule{WindowStart: time.Second, WindowEnd: 4 * time.Second}
	rng := rand.New(rand.NewPCG(1, 1))
	for i, due := range []time.Duration{1500, 2500, 3500} {
		sched.Events = append(sched.Events, Publish{Due: due * time.Millisecond, Member: i, Payload: makePayload(rng, uint64(i), w.PayloadBytes)})
	}
	rec := newRecorder(w.N, sched, time.Now().Add(-time.Hour))
	names := []ag.NodeID{"node-00", "node-01", "node-02"}
	rec.bind(names)
	log := publishLog{
		admitted: []bool{true, true, true},
		lag:      []time.Duration{2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond},
		call:     []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond},
	}
	for i, ev := range sched.Events {
		for m := 0; m < w.N; m++ {
			rec.at[i*w.N+m] = int64(ev.Due + 10*time.Millisecond)
		}
	}
	snaps := make([]snapshot, SubWindows+1)
	for k := range snaps {
		snaps[k].cpu = time.Duration(k) * 30 * time.Microsecond
	}
	return w, sched, rec, log, snaps
}

func TestAnalyseTimesDeliveriesFromTheDueInstant(t *testing.T) {
	w, sched, rec, log, snaps := oracleFixture(t)
	res := &Result{}
	analyse(res, w, sched, rec, log, snaps, 0)
	if !res.Correct() {
		t.Fatalf("clean fixture has violations: %v", res.Violations)
	}
	// Published 2 ms late, delivered 10 ms after due: the open loop
	// reports 10 ms, not 8.
	if m, _ := res.Get("latency_p50_ms"); m.Value != 10 {
		t.Errorf("latency_p50_ms = %v, want 10 (timed from the due instant)", m.Value)
	}
	if m, _ := res.Get("atomic_latency_p50_ms"); m.Value != 10 {
		t.Errorf("atomic_latency_p50_ms = %v, want 10", m.Value)
	}
	if _, ok := res.Get("latency_p99_ms"); ok {
		t.Error("latency_p99_ms was reported from 9 samples")
	}
	if m, _ := res.Get("atomicity"); m.Value != 1 {
		t.Errorf("atomicity = %v", m.Value)
	}
	if m, _ := res.Get("goodput_eps"); m.Value != 1 {
		t.Errorf("goodput_eps = %v, want 3 events over 3 s", m.Value)
	}
	// 30 us of CPU and 3 deliveries in each third.
	if m, _ := res.Get("cpu_us_per_delivery"); m.Value != 10 {
		t.Errorf("cpu_us_per_delivery = %v, want 10", m.Value)
	}
	if res.OpsAttempted != 9 || res.OpsFailed != 0 || res.Deliveries != 9 {
		t.Errorf("ops %d/%d, deliveries %d", res.OpsFailed, res.OpsAttempted, res.Deliveries)
	}
}

func TestOracleCatchesEveryKindOfViolation(t *testing.T) {
	has := func(res *Result, what string) bool {
		for _, v := range res.Violations {
			if strings.Contains(v, what) {
				return true
			}
		}
		return false
	}

	t.Run("undelivered", func(t *testing.T) {
		w, sched, rec, log, snaps := oracleFixture(t)
		rec.at[1*w.N+2] = 0
		res := &Result{}
		analyse(res, w, sched, rec, log, snaps, 0)
		// Gossip reaching fewer members is a worse reading, not a
		// failed operation.
		if res.OpsUndelivered != 1 || res.OpsFailed != 0 || !res.Correct() {
			t.Errorf("ops_undelivered = %d, ops_failed = %d, violations %v; want 1, 0, none", res.OpsUndelivered, res.OpsFailed, res.Violations)
		}
		if m, _ := res.Get("atomicity"); m.Value >= 1 {
			t.Errorf("atomicity = %v with an event that missed a member of three", m.Value)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		w, sched, rec, log, snaps := oracleFixture(t)
		rec.deliver(ag.Delivery{Node: "node-01", Event: ag.Event{Payload: sched.Events[0].Payload}})
		res := &Result{}
		analyse(res, w, sched, rec, log, snaps, 0)
		if !has(res, "duplicate") || res.OpsFailed != 1 {
			t.Errorf("violations %v, ops_failed %d", res.Violations, res.OpsFailed)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		w, sched, rec, log, snaps := oracleFixture(t)
		bad := append([]byte(nil), sched.Events[0].Payload...)
		bad[20] ^= 1
		rec.deliver(ag.Delivery{Node: "node-01", Event: ag.Event{Payload: bad}})
		res := &Result{}
		analyse(res, w, sched, rec, log, snaps, 0)
		if !has(res, "differs from what was published") || res.OpsFailed != 1 {
			t.Errorf("violations %v, ops_failed %d", res.Violations, res.OpsFailed)
		}
	})
	t.Run("refused publish delivered", func(t *testing.T) {
		w, sched, rec, log, snaps := oracleFixture(t)
		log.admitted[2] = false
		res := &Result{}
		analyse(res, w, sched, rec, log, snaps, 0)
		if !has(res, "refused") || res.OpsFailed != int64(w.N) {
			t.Errorf("violations %v, ops_failed %d", res.Violations, res.OpsFailed)
		}
	})
	t.Run("atomicity floor", func(t *testing.T) {
		w, sched, rec, log, snaps := oracleFixture(t)
		w.MinAtomicity = 0.95
		rec.at[0] = 0
		res := &Result{}
		analyse(res, w, sched, rec, log, snaps, 0)
		if !has(res, "below the workload's floor") {
			t.Errorf("violations %v", res.Violations)
		}
	})
}
