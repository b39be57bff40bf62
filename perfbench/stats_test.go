package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // order must not matter
	cases := []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}}
	for _, c := range cases {
		got, err := percentile(xs, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of an empty sample did not fail")
	}
	if _, err := percentile(xs, 101); err == nil {
		t.Error("percentile 101 did not fail")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	// 99 samples leave 9.9 beyond p90 and p10: both tails are refused.
	if _, err := tailPercentile(xs, 90, minBeyondTail); err == nil {
		t.Error("p90 of 99 samples was reported")
	}
	if _, err := tailPercentile(xs, 10, minBeyondTail); err == nil {
		t.Error("p10 of 99 samples was reported")
	}
	// The median needs no tail and 100 samples are enough for p90.
	if _, err := tailPercentile(xs, 50, minBeyondTail); err != nil {
		t.Errorf("p50 of 99 samples refused: %v", err)
	}
	xs = append(xs, 99)
	got, err := tailPercentile(xs, 90, minBeyondTail)
	if err != nil || math.Abs(got-89.1) > 1e-9 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89.1", got, err)
	}
}

func TestHistQuantile(t *testing.T) {
	h := histSnapshot([]float64{1, 2, 4}, []int64{0, 10, 10, 0}, 60)
	if got, _ := histQuantile(h, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2 (upper edge of the second bucket)", got)
	}
	if got, _ := histQuantile(h, 0.75); got != 3 {
		t.Errorf("p75 = %v, want 3 (halfway through the third bucket)", got)
	}
	// All mass in the first bucket: the mean, capped at the bucket edge.
	h = histSnapshot([]float64{1, 2}, []int64{4, 0, 0}, 2)
	if got, _ := histQuantile(h, 0.5); got != 0.5 {
		t.Errorf("first-bucket p50 = %v, want the mean 0.5", got)
	}
	if _, ok := histQuantile(histSnapshot([]float64{1}, []int64{0, 0}, 0), 0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
}

func TestUnionLen(t *testing.T) {
	got := unionLen([][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 9}})
	if got != 3+4 {
		t.Errorf("unionLen = %d, want 7", got)
	}
}
