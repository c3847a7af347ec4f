package main

import (
	"math"
	"sort"
)

// sampleSet collects latencies of one kind of operation. A failed
// operation (refused, timed out, never adapted) is recorded as +Inf, so
// it counts against every percentile it reaches instead of vanishing
// from the distribution.
type sampleSet struct {
	v []float64
}

func (s *sampleSet) add(x float64) { s.v = append(s.v, x) }
func (s *sampleSet) fail()         { s.v = append(s.v, math.Inf(1)) }
func (s *sampleSet) n() int        { return len(s.v) }

// failures returns how many recorded operations failed.
func (s *sampleSet) failures() int {
	n := 0
	for _, x := range s.v {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// quantile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank method: the value at index ceil(q*n)-1 of the sorted
// samples. Failures sort last as +Inf. An empty set yields NaN.
func (s *sampleSet) quantile(q float64) float64 {
	return quantile(s.v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median is the 0.5 quantile.
func median(v []float64) float64 { return quantile(v, 0.5) }

// percentileLadder lists the percentiles a timing may be reported at,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestPercentile returns the highest percentile of percentileLadder
// that has at least ten of n samples strictly beyond it, or 0 when even
// the median has fewer. A tail percentile resting on fewer samples than
// that is one or two outliers, not a distribution.
func highestPercentile(n int) float64 {
	for _, p := range percentileLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// supports reports whether n samples carry the p-th percentile with at
// least ten samples beyond it.
func supports(n int, p float64) bool { return beyond(n, p) >= 10 }
