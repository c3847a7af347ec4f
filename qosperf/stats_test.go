package main

import (
	"math"
	"testing"
)

func TestQuantileCountsFailuresAsInfinite(t *testing.T) {
	var s sampleSet
	for i := 1; i <= 98; i++ {
		s.add(float64(i))
	}
	s.fail()
	s.fail()
	if got := s.quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := s.quantile(0.98); got != 98 {
		t.Errorf("p98 = %v, want 98 (the last success)", got)
	}
	if got := s.quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: two of 100 operations failed", got)
	}
	if got := s.failures(); got != 2 {
		t.Errorf("failures = %d, want 2", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {0.01, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing = %v, want NaN", got)
	}
}

func TestHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 beyond p99.9
		{9999, 99},    // 9 beyond p99.9
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{40, 75},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("p99 needs 1000 samples for ten beyond it")
	}
	if supports(99, 90) || !supports(100, 90) {
		t.Error("p90 needs 100 samples for ten beyond it")
	}
}
