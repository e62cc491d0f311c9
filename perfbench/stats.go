package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is how many samples a reported percentile needs beyond
// it: a p99 needs 1000 samples, a p999 10000.
const minTailSamples = 10

// quantile returns the nearest-rank p-quantile of xs. It sorts a copy, so
// the caller's order is kept. +Inf entries (failed requests) sort last and
// count as slower than any completed request.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-quantile in a sorted
// sample of n.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supports reports whether a sample of n has at least minTailSamples
// samples beyond its p-quantile.
func supports(n int, p float64) bool {
	return float64(n)*(1-p) >= minTailSamples-1e-9
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
