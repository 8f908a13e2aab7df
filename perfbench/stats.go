package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p·n samples at or below it. xs is not
// modified; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 0.5 percentile, except that an even count averages the
// two middle samples, so two iterations report their mean.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9}

// reportedTail picks the highest tail percentile that has at least
// tailSamples samples beyond it among n samples: 0.9 needs 100 samples,
// 0.99 needs 1000. It returns 0 when even p90 lacks the samples — the
// caller then still reports p90 but flags it as under-sampled.
func reportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		// Samples strictly beyond the nearest-rank p-quantile.
		beyond := n - int(math.Ceil(p*float64(n)-1e-9))
		if beyond >= tailSamples {
			return p
		}
	}
	return 0
}
