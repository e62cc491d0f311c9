package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestQuantileCountsFailuresAsSlowest(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[3] = math.Inf(1)
	if got := quantile(xs, 0.99); got != 1 {
		t.Errorf("p99 with one failure in 100 = %v, want 1", got)
	}
	xs[4] = math.Inf(1)
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures in 100 = %v, want +Inf", got)
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {1050, 0.99, true},
		{9999, 0.999, false}, {10000, 0.999, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
