package core_test

import (
	"math"
	"strings"
	"testing"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/experiments"
)

// TestParamsValidateAllocFree: validating a good configuration
// allocates nothing — every member built for a simulation validates
// one — and a bad one still reports every failing check, NaN included.
func TestParamsValidateAllocFree(t *testing.T) {
	for name, p := range map[string]core.Params{
		"DefaultParams":         core.DefaultParams(),
		"DefaultExperimentCore": experiments.DefaultExperimentCore(1),
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() { err = p.Validate() })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: Validate allocates %v times, want 0", name, allocs)
		}
	}

	bad := core.DefaultParams()
	bad.Window = 0
	bad.IncreaseProb = 0
	bad.MaxRate = 0
	bad.MinBuffFloor = -1
	bad.Alpha = math.NaN()
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid params accepted")
	}
	for _, want := range []string{
		"window must be positive, got 0",
		"alpha must be in [0,1), got NaN",
		"increase probability must be in (0,1], got 0",
		"max rate 0 must be at least min rate 0.01",
		"min-buffer floor must be non-negative, got -1",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if got := strings.Count(err.Error(), "\n") + 1; got != 5 {
		t.Errorf("%d errors reported, want 5: %v", got, err)
	}
}
