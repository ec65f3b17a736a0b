package main

import "testing"

func TestPercentileSampleCountRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := percentileOK(c.n, c.q); got != c.want {
			t.Errorf("percentileOK(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		if _, ok := percentile(xs, c.q); ok != c.want {
			t.Errorf("percentile over %d samples at %g reported ok=%v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestMinSamples(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamples(q); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", q, got, want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if v, _ := percentile(xs, 0.5); v != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", v)
	}
	if v, _ := percentile(xs, 1); v != 4 {
		t.Errorf("max = %v, want 4", v)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean(1, 4) = %v, want 2", g)
	}
}
