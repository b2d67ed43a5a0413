package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalog")

// BENCHMARK.json is the catalog and the workload list, written out. The
// names in it are what every later performance claim cites, so it may
// not drift from what the program prints.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with the catalog; run go test -run TestBenchmarkJSON -update", path)
	}
}

// The contract's own limits, checked here so that a catalog edit cannot
// produce a file the driver refuses.
func TestCatalogFitsTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	contractE2E := 0
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		if !name.MatchString(s.Name) {
			t.Errorf("metric name %q breaks the contract", s.Name)
		}
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q breaks the contract", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("%s is listed twice", s.Name)
		}
		seen[s.Name] = true
		if s.Contract {
			contractE2E++
			if b := s.contractBound(); b <= 0 || b > 0.25 {
				t.Errorf("%s: contract bound %v outside (0, 0.25]", s.Name, b)
			}
		}
	}
	if len(endToEnd) != 14 {
		t.Errorf("%d end-to-end metrics, the benchmark defines 14", len(endToEnd))
	}
	if contractE2E < 1 || contractE2E > 16 || len(contractPerLayer()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics in the contract", contractE2E, len(contractPerLayer()))
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || !s.Contract {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", s)
	}
}

// The driver passes --workload w --seed n --seconds s --trace 0|1.
func TestParseFlagsAcceptsTheDriversArguments(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "udp_full", "--seed", "42", "--seconds", "18", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "udp_full" || len(o.seeds) != 1 || o.seeds[0] != 42 || o.seconds != 18 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	o, err = parseFlags([]string{"--workload", "sim_paper", "--seed", "1", "--seconds", "18", "--trace", "0"})
	if err != nil || o.trace {
		t.Errorf("--trace 0: %+v, %v", o, err)
	}
	if o, err := parseFlags([]string{"-repeat", "2", "-seed", "1,2"}); err != nil || o.repeat != 2 || len(o.seeds) != 2 || o.workload != "all" {
		t.Errorf("-repeat 2 -seed 1,2: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seed", "x"}, {"--seconds", "0"}, {"stray"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v was accepted", bad)
		}
	}
}

func TestAllowanceIsTheLargerOfRelativeAndAbsolute(t *testing.T) {
	both := spec{Better: "lower", Rel: 0.5, Abs: 0.05}
	if both.allowance(0.06) != 0.05 || both.allowance(1) != 0.5 {
		t.Errorf("allowance(0.06) = %v, allowance(1) = %v", both.allowance(0.06), both.allowance(1))
	}
	ratio := spec{Better: "higher", Abs: 0.002}
	if ratio.allowance(0.999) != 0.002 || ratio.contractBound() != 0.002 {
		t.Errorf("absolute bound: allowance %v, contract %v", ratio.allowance(0.999), ratio.contractBound())
	}
	if got := (spec{Rel: 0.5, Abs: 0.05}).contractBound(); got != 0.25 {
		t.Errorf("contract bound %v is not capped at 0.25", got)
	}
}
