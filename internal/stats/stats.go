// Package stats provides the small statistical toolkit used throughout
// CM-DARE: descriptive statistics, empirical CDFs, histograms, online
// accumulators, and seeded random-variate generators.
//
// Everything in this package is deterministic given a seed; no global
// random state is used. All functions operate on float64 slices and do
// not retain or mutate their inputs unless documented otherwise.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice so that callers reporting summaries need not special-case
// missing data.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator) of xs.
// It returns 0 when xs has fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoV returns the coefficient of variation (std / mean) of xs. It
// returns 0 if the mean is zero to keep dashboards well defined.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Std(xs) / m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs. It panics on an empty slice because a
// minimum of nothing is a programming error, not a data condition.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics (the same convention as
// numpy's default). It panics if xs is empty or p is outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Quantile probability %v outside [0,1]", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// MeanStd returns both the mean and the sample standard deviation in a
// single pass-friendly call; it is the shape most tables in the paper
// report ("x ± y").
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), Std(xs)
}

// Pearson returns the Pearson correlation coefficient between xs and
// ys. It panics if the lengths differ and returns 0 when either series
// has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAE returns the mean absolute error between predictions and targets.
// It panics if the lengths differ or are zero.
func MAE(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("stats: MAE requires equal, non-empty slices")
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - target[i])
	}
	return s / float64(len(pred))
}

// MAPE returns the mean absolute percentage error, in percent, between
// predictions and targets. Targets equal to zero are skipped; if all
// targets are zero it returns 0.
func MAPE(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("stats: MAPE requires equal, non-empty slices")
	}
	var s float64
	n := 0
	for i := range pred {
		if target[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - target[i]) / target[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// RMSE returns the root mean squared error between predictions and
// targets. It panics if the lengths differ or are zero.
func RMSE(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("stats: RMSE requires equal, non-empty slices")
	}
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}
