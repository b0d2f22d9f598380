package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1000, 0.99, 990},
		{1000, 0.5, 500},
		{100, 0.9, 90},
		{21, 0.5, 11},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil {
			t.Fatalf("n=%d p=%g: %v", tc.n, tc.p, err)
		}
		if got != tc.want {
			t.Errorf("n=%d p=%g: got %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestFastestSum(t *testing.T) {
	runs := [][]float64{
		{1.0, 0.2, 3.0},
		{2.0, 0.1, 3.5},
		{1.5, 0.4, 2.5},
	}
	if got, want := fastestSum(runs), 1.0+0.1+2.5; got != want {
		t.Errorf("fastestSum = %g, want %g", got, want)
	}
	if got := fastestSum(runs[:1]); got != sum(runs[0]) {
		t.Errorf("fastestSum of one repetition = %g, want its total %g", got, sum(runs[0]))
	}
}

// A host at half speed doubles the segments and the probes around
// them alike, and leaves the scaled sum where it was.
func TestProbeScaledSum(t *testing.T) {
	segs := [][]float64{{0.010, 0.030}, {0.020, 0.060}, {0.011, 0.029}}
	probes := [][]float64{{0.001, 0.001, 0.001}, {0.002, 0.002, 0.002}, {0.001, 0.001, 0.001}}
	want := (10 + 30) * probeSeconds
	if got := probeScaledSum(segs, probes); math.Abs(got-want) > 1e-12 {
		t.Errorf("probeScaledSum = %g, want %g", got, want)
	}
	// A segment is scaled by the mean of the probes before and after it.
	if got, want := probeScaledSum([][]float64{{0.003}}, [][]float64{{0.001, 0.002}}), 2*probeSeconds; math.Abs(got-want) > 1e-12 {
		t.Errorf("probeScaledSum = %g, want %g", got, want)
	}
}

func TestPercentileTailFloor(t *testing.T) {
	for _, tc := range []struct {
		p   float64
		min int
	}{{0.99, 1000}, {0.9, 100}, {0.5, 20}} {
		if got := minSamples(tc.p); got != tc.min {
			t.Errorf("minSamples(%g) = %d, want %d", tc.p, got, tc.min)
		}
		if _, err := percentile(seq(tc.min), tc.p); err != nil {
			t.Errorf("p%g of %d samples: %v", tc.p*100, tc.min, err)
		}
		if _, err := percentile(seq(tc.min-1), tc.p); err == nil {
			t.Errorf("p%g of %d samples: want a tail-floor error", tc.p*100, tc.min-1)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}
