package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it: a tail percentile resting on fewer is one or two samples
// and means nothing.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// supported reports whether n samples leave at least minBeyond samples
// beyond percentile p.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// tailPercentile picks the first of the candidate percentiles, given in
// descending order, that n samples support, or the last candidate when
// none is supported (the caller reports the shortfall).
func tailPercentile(n int, candidates ...float64) (p float64, ok bool) {
	for _, c := range candidates {
		if supported(n, c) {
			return c, true
		}
	}
	return candidates[len(candidates)-1], false
}

// percentile returns the nearest-rank percentile p of xs (NaN when xs
// is empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs, averaging the two middle values of
// an even count (NaN when xs is empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs (0 when xs is empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0: a per-unit count of work that never
// happened is no work, not a division fault.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
