package bench

import (
	"math"
	"sort"
)

// Median returns the median of xs (0 for an empty slice). xs is not
// modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it. +Inf entries (failed operations) sort last. xs is not
// modified; an empty slice gives 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TailPercentile is the tail rule of the benchmark: the highest whole
// percentile that leaves at least minBeyond samples strictly above its rank
// when n samples are taken. It is fixed per workload from the sample count
// the workload's run length yields, so that every run reports the same
// percentile. It returns 50 when n is too small for any higher percentile.
func TailPercentile(n, minBeyond int) float64 {
	best := 50.0
	for p := 51; p <= 99; p++ {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= minBeyond {
			best = float64(p)
		}
	}
	return best
}

// Beyond counts the samples strictly above the p-th percentile's rank.
func Beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// Geomean returns the geometric mean of the positive values in xs (0 when
// there are none).
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 1) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Max returns the largest value of xs (0 for an empty slice).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
