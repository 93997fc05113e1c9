package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two middle values
// for an even count, as Python's statistics.median does. It is 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) does with its default "exclusive"
// method, so the spread printed here is the spread the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailQuantile is the highest quantile that leaves at least ten of n samples
// beyond it, capped at 0.9 (reached at 100 samples) and floored at the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return max(0.5, min(0.9, 1-10/float64(n)))
}

// percentile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond counts the samples strictly above the nearest-rank q-quantile slot.
func beyond(n int, q float64) int {
	return n - max(1, int(math.Ceil(q*float64(n))))
}

// worse is how much b is worse than a, as a share of a, for a metric whose
// better direction is "lower" or "higher"; negative when b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

// agree reports whether two sets of runs of the same code agree: their
// medians differ by at most bound as a share of the first set's median. A
// bound of 0 demands identical medians (virtual-clock metrics and counts).
func agree(a, b []float64, bound float64) bool {
	ma, mb := median(a), median(b)
	if bound == 0 {
		return ma == mb
	}
	return math.Abs(mb-ma) <= bound*math.Abs(ma)
}

// abStats compares paired runs of a parent (a) and a change (b) of one metric.
type abStats struct {
	MedianA, Q1A, Q3A float64
	MedianB, Q1B, Q3B float64
	Wins, Pairs       int     // pairs where b beat a; ties count for neither
	Worse             float64 // median of b against a, as a share; negative is better
	Verdict           string
}

// compareAB applies the same-host A/B rule: the change wins when it beats
// the parent in at least nine tenths of the pairs and the medians differ by
// more than the parent's interquartile range. Otherwise it regresses when its
// median is worse than the parent's by more than bound, and the comparison
// is unresolved when either side's own spread exceeds the bound, unless
// every run of the change reads better than every run of the parent.
func compareAB(a, b []float64, better string, bound float64) abStats {
	st := abStats{MedianA: median(a), MedianB: median(b), Pairs: min(len(a), len(b))}
	st.Q1A, st.Q3A = quartiles(a)
	st.Q1B, st.Q3B = quartiles(b)
	st.Worse = worse(st.MedianA, st.MedianB, better)
	for i := 0; i < st.Pairs; i++ {
		if worse(a[i], b[i], better) < 0 {
			st.Wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if worse(x, y, better) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case st.Pairs > 0 && 10*st.Wins >= 9*st.Pairs && st.Worse < 0 &&
		math.Abs(st.MedianB-st.MedianA) > st.Q3A-st.Q1A:
		st.Verdict = "gain"
	case allBetter:
		st.Verdict = "better in every run"
	case spread(a) > bound || spread(b) > bound:
		st.Verdict = "unresolved"
	case st.Worse > bound:
		st.Verdict = "regression"
	default:
		st.Verdict = "within bound"
	}
	return st
}
