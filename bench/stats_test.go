package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median(xs) and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 3.75, 1.8125, 7.75},
		{[]float64{5, 7}, 6, 4.5, 7.5},
		{[]float64{2, 2, 2}, 2, 2, 2},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 60, 30, 90},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		tail int
	}{
		{100, 0.9, 10},
		{500, 0.9, 50},
		{60, 1 - 10.0/60, 10},
		{75, 1 - 10.0/75, 10},
		{12, 0.5, 6}, // too few samples: floored at the median
	}
	for _, c := range cases {
		q := tailQuantile(c.n)
		if math.Abs(q-c.q) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, q, c.q)
		}
		if got := beyond(c.n, q); got != c.tail {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, q, got, c.tail)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, tailQuantile(len(xs))); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
}

func TestMixMedianWeighsEachTracesMedian(t *testing.T) {
	mk := func(trace string, msecs ...float64) []session {
		var out []session
		for _, m := range msecs {
			out = append(out, session{trace: trace, wall: time.Duration(m * 1e6)})
		}
		return out
	}
	one := mk("a", 30, 10, 20)
	if got := mixMedian(one); got != 20 {
		t.Errorf("one trace: %v, want its median 20", got)
	}
	mix := append(mk("short", 14, 10, 12), mk("long", 100, 120)...)
	if got, want := mixMedian(mix), (3*12+2*110)/5.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("two traces: %v, want %v", got, want)
	}
}

func TestAgreeWithinBound(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	if !agree(a, []float64{108, 109, 107, 110, 108}, 0.10) {
		t.Error("medians 100 and 108 should agree within 10%")
	}
	if agree(a, []float64{112, 111, 113, 112, 114}, 0.10) {
		t.Error("medians 100 and 112 should not agree within 10%")
	}
	if !agree([]float64{4.245882, 4.245882}, []float64{4.245882}, 0) {
		t.Error("identical exact values should agree at bound 0")
	}
	if agree([]float64{4.245882}, []float64{4.245883}, 0) {
		t.Error("exact values differing in the last digit must not agree at bound 0")
	}
}

func TestCompareABVerdicts(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := []float64{80, 81, 79, 82, 80, 78, 81, 80, 79, 80}
	if st := compareAB(parent, faster, "lower", 0.10); st.Verdict != "gain" || st.Wins != 10 {
		t.Errorf("20%% faster in every pair: got %+v", st)
	}
	// Better in 8 of 10 pairs only: no gain may be claimed.
	mixed := append([]float64{110, 111}, faster[2:]...)
	if st := compareAB(parent, mixed, "lower", 0.10); st.Verdict == "gain" {
		t.Errorf("8/10 wins must not be a gain: %+v", st)
	}
	slower := []float64{115, 116, 114, 117, 115, 116, 114, 115, 116, 115}
	if st := compareAB(parent, slower, "lower", 0.10); st.Verdict != "regression" {
		t.Errorf("15%% slower at a 10%% bound: got %+v", st)
	}
	if st := compareAB(parent, slower, "higher", 0.10); st.Verdict != "gain" {
		t.Errorf("15%% higher throughput: got %+v", st)
	}
	noisy := []float64{60, 140, 70, 130, 100, 90, 150, 50, 110, 105}
	if st := compareAB(parent, noisy, "lower", 0.10); st.Verdict != "unresolved" {
		t.Errorf("spread wider than the bound: got %+v", st)
	}
	same := []float64{101, 99, 100, 102, 98, 100, 101, 99, 100, 103}
	if st := compareAB(parent, same, "lower", 0.10); st.Verdict != "within bound" {
		t.Errorf("same code: got %+v", st)
	}
}
