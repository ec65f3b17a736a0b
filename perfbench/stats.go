package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile
// before the benchmark reports it: with fewer, a "p99" is just the
// maximum of a handful of samples and moves with a single outlier.
const minBeyond = 10

// percentileOK reports whether the q-quantile (q in (0,1)) of n
// samples leaves at least minBeyond samples above it: the p50 needs 20
// samples, the p90 100 and the p99 1000.
func percentileOK(n int, q float64) bool {
	below := int(math.Ceil(q*float64(n) - 1e-9))
	return n-below >= minBeyond
}

// minSamples is the smallest sample size for which the q-quantile is
// reported.
func minSamples(q float64) int {
	n := 1
	for !percentileOK(n, q) {
		n++
	}
	return n
}

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks, and whether the sample is large enough to
// report it (see percentileOK). xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	return v, percentileOK(len(s), q)
}

// median is the 0.5-quantile without the sample-count rule; it is used
// for repeated set-up timings, not for reported latency percentiles.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
