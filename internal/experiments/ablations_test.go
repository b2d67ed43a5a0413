package experiments

import (
	"strings"
	"sync"
	"testing"
)

// ablationBattery runs the A1–A4 battery once per test binary and hands
// each study's test its rows, so the four studies share one sweep.
var ablationBattery = sync.OnceValues(func() ([]AblationRow, error) {
	return RunAblations(smallConfig(), 1)
})

// ablationStudy returns the battery's rows of one study ("A1".."A4"),
// failing unless there are want of them.
func ablationStudy(t *testing.T, key string, want int) []AblationRow {
	t.Helper()
	rows, err := ablationBattery()
	if err != nil {
		t.Fatal(err)
	}
	var study []AblationRow
	for _, r := range rows {
		if r.Study[:2] == key {
			study = append(study, r)
		}
	}
	if len(study) != want {
		t.Fatalf("%s: %d rows, want %d", key, len(study), want)
	}
	return study
}

// requireAlive fails if a variant left the group admitting no load.
func requireAlive(t *testing.T, rows []AblationRow) {
	t.Helper()
	for _, r := range rows {
		if r.AllowedMean <= 0 {
			t.Fatalf("variant dead, allowed mean empty: %+v", r)
		}
	}
}

// TestAblationTokenCheckShowsInflation: A2 without the avgTokens guard
// inflates the allowance, and the render names every study.
func TestAblationTokenCheckShowsInflation(t *testing.T) {
	rows := ablationStudy(t, "A2", 2)
	withCheck, without := rows[0], rows[1]
	// Without the guard, the unused allowance inflates well beyond the
	// guarded variant's.
	if without.AllowedMean < 1.5*withCheck.AllowedMean {
		t.Fatalf("no inflation visible: with=%.2f without=%.2f",
			withCheck.AllowedMean, without.AllowedMean)
	}
	all, _ := ablationBattery()
	var sb strings.Builder
	RenderAblations(&sb, all)
	for _, r := range all {
		if !strings.Contains(sb.String(), r.Study) {
			t.Fatalf("render missing study %q", r.Study)
		}
	}
}

// TestAblationRandomizationRuns: both A1 increase probabilities keep the
// group admitting load.
func TestAblationRandomizationRuns(t *testing.T) {
	requireAlive(t, ablationStudy(t, "A1", 2))
}

// TestAblationWindowRuns: every A3 estimate window keeps the group
// admitting load.
func TestAblationWindowRuns(t *testing.T) {
	requireAlive(t, ablationStudy(t, "A3", 3))
}

// TestAblationAlphaRuns: both A4 EMA weights keep the group admitting
// load.
func TestAblationAlphaRuns(t *testing.T) {
	requireAlive(t, ablationStudy(t, "A4", 2))
}
