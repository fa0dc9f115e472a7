package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// ramp returns the samples 1..n in a scrambled order.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*7)%n + 1)
	}
	return xs
}

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{19, 0, false}, // p50 is the 10th sample: only 9 beyond it
		{20, 50, true}, // p50 is the 10th: 10 beyond
		{40, 75, true}, // p75 is the 30th: 10 beyond; p90 the 36th: 4
		{100, 90, true},
		{200, 95, true},
		{999, 95, true}, // p99 is the 990th: only 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: percentile p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if !ok {
			continue
		}
		// On the samples 1..n the value is its own rank; at least ten
		// samples lie beyond it, and beyond the next ladder step fewer do.
		if beyond := c.n - int(v); beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it, want at least 10", c.n, p, v, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(100)
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %g, want 0", got)
	}
}
