package loadgen

import (
	"math"
	"sort"

	"lbsq/internal/geom"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. Nearest rank never invents a latency nobody saw, which
// matters at p99 where interpolation would blend a stall with a fast op.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the median of xs without reordering it.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver that gates this benchmark uses. It needs two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	m := Median(xs)
	if math.IsNaN(q1) || geom.ExactZero(m) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}
