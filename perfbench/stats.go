package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailLadder is the percentiles tailPercentile chooses from, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it, by nearest rank: percentile p is the k-th
// smallest sample with k = ceil(p/100 × n), and n−k samples lie beyond
// it. ok is false when no percentile qualifies (fewer than 20 samples).
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		k := rank(p, n)
		if k >= 1 && n-k >= 10 {
			return p, s[k-1], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the nearest rank of percentile p among n samples, ceil(p/100 ×
// n), computed so that float rounding cannot push an exact product (99.9%
// of 10000) up a rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// meanOfMedians returns the mean over groups of each group's median: a
// latency figure that weighs every group (a program, a package) the same,
// so it does not move when a run's mix of groups does.
func meanOfMedians(groups map[string][]float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	t := 0.0
	for _, xs := range groups {
		t += median(xs)
	}
	return t / float64(len(groups))
}
