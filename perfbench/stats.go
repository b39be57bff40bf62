package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a tail percentile for
// it to be reported: a p90 needs at least 100 samples, so that ten or more
// sit above it and the tail is measured rather than read off one or two
// outliers.
const minBeyondTail = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of an empty sample")
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("percentile %v outside [0, 100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

// tailPercentile is percentile for a tail (p90 of a latency, p10 of a
// throughput). It refuses when fewer than minBeyond samples lie beyond
// the percentile, i.e. when n·min(p, 100−p)/100 < minBeyond.
func tailPercentile(xs []float64, p float64, minBeyond int) (float64, error) {
	side := math.Min(p, 100-p) / 100
	if beyond := float64(len(xs)) * side; beyond < float64(minBeyond) {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d",
			p, len(xs), beyond, minBeyond)
	}
	return percentile(xs, p)
}

// median is percentile 50, with an empty sample reading as 0.
func median(xs []float64) float64 {
	v, err := percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}
