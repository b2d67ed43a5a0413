package e2e

import (
	"testing"
	"time"
)

// Every workload, shrunk to five members and a fraction of a second,
// must run end to end, produce the metrics that apply to it and pass
// its own oracle.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		w := w.Reduced(5)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var res *Result
			var err error
			if w.Sim {
				res, _, err = RunSim(w, 1, 0.5)
			} else {
				res, err = RunUDP(w, 1, 600*time.Millisecond)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Errorf("oracle: %v", res.Violations)
			}
			want := []string{"setup_s", "goodput_eps", "delivery_ratio", "atomicity", "latency_p50_ms",
				"cpu_us_per_delivery", "allocs_per_delivery", "alloc_bytes_per_delivery", "peak_rss_mb", "core.admit_ratio"}
			if w.Sim {
				want = append(want, "sim_deliveries_per_s", "experiments.run_wall_s")
			} else {
				want = append(want, "atomic_latency_p50_ms", "wire_bytes_per_delivery", "compress.ratio",
					"udp.recv_queue_drops", "udp.send_errors", "udp.decode_errors", "runtime.tick_slip_ratio")
			}
			for _, name := range want {
				if m, ok := res.Get(name); !ok {
					t.Errorf("%s is missing", name)
				} else if m.Value < 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if res.OpsAttempted == 0 || res.Deliveries == 0 {
				t.Errorf("ops_attempted %d, deliveries %d", res.OpsAttempted, res.Deliveries)
			}
			if m, _ := res.Get("delivery_ratio"); m.Value < 0.9 {
				t.Errorf("delivery_ratio = %v on a five-member group", m.Value)
			}
			switch w.Name {
			case "udp_steady":
				if m, _ := res.Get("core.throttled"); m.Value != 0 {
					t.Errorf("core.throttled = %v with adaptation off", m.Value)
				}
				fallthrough
			case "udp_overload":
				if m, _ := res.Get("compress.ratio"); m.Value != 1 {
					t.Errorf("compress.ratio = %v with compression off", m.Value)
				}
			case "udp_full":
				if m, _ := res.Get("compress.ratio"); m.Value <= 1 {
					t.Errorf("compress.ratio = %v with flate on", m.Value)
				}
			}
		})
	}
}
