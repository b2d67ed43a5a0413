package e2e

import "testing"

func ramp(n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i + 1)
	}
	return vs
}

func TestPercentileNearestRank(t *testing.T) {
	vs := ramp(1000)
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {1, 1000}, {0.001, 1}} {
		if got, _ := Percentile(vs, c.q); got != c.want {
			t.Errorf("Percentile(1..1000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples must not be reportable")
	}
}

// A percentile is only printed with at least ten samples beyond it: p99
// needs a thousand samples, the median needs one.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, ok := Percentile(ramp(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must be withheld")
	}
	if _, ok := Percentile(ramp(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and must be reported")
	}
	if _, ok := Percentile(ramp(3), 0.5); !ok {
		t.Error("the median of any sample is reportable")
	}
	if _, ok := Percentile(ramp(1000), 0.999); ok {
		t.Error("p99.9 of 1000 samples has 1 beyond it and must be withheld")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median(3,1,2) = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(4,1,3,2) = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median() = %v", got)
	}
}

// Quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	q1, q2, q3 = Quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	if q1, q2, q3 := Quartiles([]float64{5}); q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("quartiles of one = %v %v %v", q1, q2, q3)
	}
}

func TestCheapestIsTheMeanOfTheLowestSixth(t *testing.T) {
	eighteen := []float64{30, 11, 25, 10, 40, 12, 50, 60, 70, 80, 90, 21, 22, 23, 24, 26, 27, 28}
	if got := Cheapest(eighteen); got != 11 {
		t.Errorf("Cheapest of 18 = %v, want the mean of 10, 11, 12", got)
	}
	if got := Cheapest([]float64{5, 3, 4}); got != 3 {
		t.Errorf("Cheapest of 3 = %v, want the minimum", got)
	}
	if got := Cheapest(nil); got != 0 {
		t.Errorf("Cheapest of none = %v", got)
	}
}
