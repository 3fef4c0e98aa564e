package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[min(max(rank(p, n)-1, 0), n-1)]
}

// rank is the 1-based nearest-rank position of percentile p in a sample of
// n; the tolerance keeps products like 0.999*10000 from rounding up a rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// median of an unsorted sample (mean of the middle pair for even sizes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail latencies: the highest
// percentile of tailLadder with at least ten samples beyond it in a sample
// of n, or 0 when even the median has fewer than ten beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the three cut points of xs into four groups with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spreads compare mode reports are the ones an outside check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
