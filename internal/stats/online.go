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
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
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

// Min returns the smallest observation, or 0 if empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation, or 0 if empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Merge folds another accumulator into this one, as if every
// observation recorded in other had been recorded here (Chan et al.
// parallel variance combination).
func (a *Accumulator) Merge(other Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = other
		return
	}
	n := a.n + other.n
	delta := other.mean - a.mean
	mean := a.mean + delta*float64(other.n)/float64(n)
	m2 := a.m2 + other.m2 + delta*delta*float64(a.n)*float64(other.n)/float64(n)
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// RollingMean keeps the mean of the most recent Window observations.
// The profiler averages training speed over 100-step windows, matching
// the paper's measurement methodology.
type RollingMean struct {
	window int
	buf    []float64
	next   int
	filled bool
	sum    float64
}

// NewRollingMean returns a rolling mean over the given window size.
// It panics on a non-positive window.
func NewRollingMean(window int) *RollingMean {
	if window <= 0 {
		panic("stats: RollingMean window must be positive")
	}
	return &RollingMean{window: window, buf: make([]float64, window)}
}

// Add records an observation, evicting the oldest when the window is
// full.
func (r *RollingMean) Add(x float64) {
	if r.filled {
		r.sum -= r.buf[r.next]
	}
	r.buf[r.next] = x
	r.sum += x
	r.next++
	if r.next == r.window {
		r.next = 0
		r.filled = true
	}
}

// N returns how many observations currently contribute to the mean.
func (r *RollingMean) N() int {
	if r.filled {
		return r.window
	}
	return r.next
}

// Mean returns the mean of the current window, or 0 when empty.
func (r *RollingMean) Mean() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	return r.sum / float64(n)
}

// Full reports whether the window has been filled at least once.
func (r *RollingMean) Full() bool { return r.filled }
