package stats

import "math"

// Accumulator computes streaming mean and variance with Welford's
// algorithm. Each training worker uses one to summarize its per-step
// timings without retaining every sample.
//
// The zero value is an empty accumulator ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations recorded.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or 0 if nothing has been recorded.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Variance()) }

// CoV returns the coefficient of variation, or 0 if the mean is zero.
func (a *Accumulator) CoV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / a.mean
}
