package traced

import (
	"maps"
	"os"
	"testing"

	"adaptivegossip/bench/e2e"
)

// Every workload's traced run, shrunk, must produce its layer table and
// span file, and its span counts must repeat exactly for a seed.
func TestSmokeTracedRunsRepeat(t *testing.T) {
	for _, w := range e2e.Workloads() {
		w := w.Reduced(5)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			first, err := Run(w, 1, 0.4, 10, dir)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(w, 1, 0.4, 10, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Violations) > 0 {
				t.Errorf("violations: %v", first.Violations)
			}
			// The runner probe's hand-offs depend on the runtime's
			// scheduling; everything the lockstep driver records must
			// not.
			delete(first.SpanCounts, "runtime.handoff")
			delete(second.SpanCounts, "runtime.handoff")
			if !maps.Equal(first.SpanCounts, second.SpanCounts) {
				t.Errorf("span counts differ between two runs of one seed:\n%v\n%v", first.SpanCounts, second.SpanCounts)
			}
			for _, name := range []string{"core.tick", "core.receive", "core.publish", "membership.sample", "round"} {
				if first.SpanCounts[name] == 0 {
					t.Errorf("no %s span was recorded", name)
				}
			}
			if !w.Sim && (first.SpanCounts["udp.send_many"] == 0 || first.SpanCounts["codec.decode"] == 0 || first.SpanCounts["udp.recv_path"] == 0) {
				t.Errorf("wire spans missing: %v", first.SpanCounts)
			}
			if w.Compression != "" && (first.SpanCounts["compress"] == 0 || first.SpanCounts["decompress"] == 0) {
				t.Errorf("compression spans missing: %v", first.SpanCounts)
			}
			if first.Sum <= 0 || len(first.Table) == 0 {
				t.Errorf("layer table is empty: %+v", first.Table)
			}
			if st, err := os.Stat(first.SpanFile); err != nil || st.Size() == 0 {
				t.Errorf("span file %q: %v", first.SpanFile, err)
			}
		})
	}
}
