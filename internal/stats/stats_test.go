package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negatives", []float64{-2, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); got != tc.want {
				t.Fatalf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if got := Std(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Fatalf("Std = %v, want %v", got, math.Sqrt(want))
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("Variance of one element should be 0")
	}
}

func TestCoV(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := CoV(xs); got != 0 {
		t.Fatalf("CoV of constant series = %v, want 0", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Fatalf("CoV with zero mean = %v, want 0", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) should panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Quantile(0.5) = %v, want 2.5", got)
	}
	if got := Median(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Median = %v, want 2.5", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson perfect positive = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson perfect negative = %v, want -1", got)
	}
	if got := Pearson(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Fatalf("Pearson with constant series = %v, want 0", got)
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	target := []float64{2, 2, 5}
	if got := MAE(pred, target); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("MAE = %v, want 1", got)
	}
	// MAPE skips zero targets.
	if got := MAPE([]float64{1, 5}, []float64{0, 4}); !almostEqual(got, 25, 1e-12) {
		t.Fatalf("MAPE = %v, want 25", got)
	}
}

func TestMAEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MAE with mismatched lengths should panic")
		}
	}()
	MAE([]float64{1}, []float64{1, 2})
}

// Property: for any sample, min ≤ mean ≤ max.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return Min(xs) <= m+1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
