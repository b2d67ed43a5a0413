package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMannWhitneyHandComputed checks U and the two-sided p-value
// against values worked out by hand.
func TestMannWhitneyHandComputed(t *testing.T) {
	seq := func(from, to float64) []float64 {
		var out []float64
		for v := from; v <= to; v++ {
			out = append(out, v)
		}
		return out
	}
	for _, c := range []struct {
		name string
		x, y []float64
		u, p float64
	}{
		// Separated: U = 0; of the C(6,3) = 20 splits only this one and
		// its mirror are as extreme, p = 2/20.
		{"separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		// Interleaved: x beats y in (3,2), (5,2), (5,4), U = 3. U is at
		// most 3 in 7 of the 20 splits and at least 6 in 7 more.
		{"interleaved", []float64{1, 3, 5}, []float64{2, 4, 6}, 3, 0.7},
		// Ties: 2 ties with 2 twice, U = 1/2 + 1/2. Doubled mean ranks
		// 2, 6, 6, 6, 10, 12; x sums to 14 against a mean of 21, and 6
		// of the 20 splits lie 7 or more from it (sum 14 three ways, 28
		// three ways).
		{"ties", []float64{1, 2, 2}, []float64{2, 3, 4}, 1, 0.3},
		{"all tied", []float64{5, 5, 5}, []float64{5, 5, 5}, 4.5, 1},
		// 11 a side: normal approximation. |R - E| = |66 - 126.5|,
		// z = (60.5 - 0.5) / sqrt(11·11/12 · 23) = 3.93990.
		{"normal", seq(1, 11), seq(12, 22), 0, 8.1515e-5},
	} {
		u, p := mannWhitney(c.x, c.y)
		if u != c.u {
			t.Errorf("%s: U = %v, want %v", c.name, u, c.u)
		}
		if math.Abs(p-c.p) > 1e-3*c.p {
			t.Errorf("%s: p = %v, want %v", c.name, p, c.p)
		}
		// Swapping the sides gives the other U and the same p.
		u2, p2 := mannWhitney(c.y, c.x)
		if want := float64(len(c.x)*len(c.y)) - c.u; u2 != want || math.Abs(p2-p) > 1e-12 {
			t.Errorf("%s swapped: U = %v, p = %v, want %v, %v", c.name, u2, p2, want, p)
		}
	}
}

func TestCompareTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.txt", `
BenchmarkDeliverHop/known-2   1000   50 ns/op   0 B/op   0 allocs/op
BenchmarkDeliverHop/known-2   1000   52 ns/op   0 B/op   0 allocs/op
BenchmarkDeliverHop/known-2   1000   51 ns/op   0 B/op   0 allocs/op
BenchmarkOnlyParent-2         1000   10 ns/op
`)
	change := write("change.txt", `
BenchmarkDeliverHop/known-2   1000   40 ns/op   0 B/op   0 allocs/op
BenchmarkDeliverHop/known-2   1000   41 ns/op   0 B/op   0 allocs/op
BenchmarkDeliverHop/known-2   1000   39 ns/op   0 B/op   0 allocs/op
`)
	var out strings.Builder
	code, err := run([]string{"-compare", parent, change}, strings.NewReader(""), &out)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v", code, err)
	}
	want := "| BenchmarkDeliverHop/known | 51 | 40 | -21.6% | 0.1 | 3 / 3 | 0 → 0 | 0 → 0 |"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("table lacks %q:\n%s", want, out.String())
	}
	if strings.Contains(out.String(), "OnlyParent") {
		t.Fatalf("a benchmark on one side only was compared:\n%s", out.String())
	}
	if code, _ := run([]string{"-compare", parent}, strings.NewReader(""), &out); code != 2 {
		t.Fatalf("-compare with one file exited %d, want 2", code)
	}
}
