package regress

import (
	"fmt"
	"math"
)

// SVR is ε-insensitive support vector regression, the model family the
// paper finds most accurate for both step-time (Table II) and
// checkpoint-time (Table IV) prediction.
//
// The dual is solved by exact coordinate descent on the
// bias-augmented kernel K'(a,b) = K(a,b) + 1, which absorbs the
// intercept into the RKHS and removes the equality constraint, leaving
// a box-constrained concave quadratic that coordinate descent solves
// to optimality. The fitted model is
//
//	f(x) = Σ_i β_i (K(x_i, x) + 1),  β_i ∈ [-C, C],
//
// where non-zero β_i identify the support vectors (the α_i − α*_i of
// the paper's Eqs. 2–3).
type SVR struct {
	// Kernel is the similarity function; required.
	Kernel Kernel
	// C is the penalty (the paper's p, grid-searched over [10, 100]).
	C float64
	// Epsilon is the insensitivity width (grid-searched over
	// [0.01, 0.1]).
	Epsilon float64
	// MaxIter bounds coordinate-descent sweeps (default 1000).
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient
	// change in a sweep (default 1e-6).
	Tol float64

	beta      []float64
	train     [][]float64
	fitted    bool
	sweeps    int
	converged bool
}

var _ Regressor = (*SVR)(nil)

// Fit trains the model on X, y.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	if err := s.validate(); err != nil {
		return err
	}
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	gram := gramMatrix(s.Kernel, X)
	if err := checkDiagonal(gram, n); err != nil {
		return err
	}
	beta := make([]float64, n)
	s.sweeps, s.converged = s.solve(gram, y, beta, make([]float64, n))

	// Retain only support vectors for prediction.
	s.beta = s.beta[:0]
	s.train = s.train[:0]
	for i, b := range beta {
		if b != 0 {
			s.beta = append(s.beta, b)
			row := make([]float64, len(X[i]))
			copy(row, X[i])
			s.train = append(s.train, row)
		}
	}
	s.fitted = true
	return nil
}

func (s *SVR) validate() error {
	if s.Kernel == nil {
		return fmt.Errorf("regress: SVR requires a kernel")
	}
	if s.C <= 0 {
		return fmt.Errorf("regress: SVR penalty C=%v must be positive", s.C)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("regress: SVR epsilon %v must be non-negative", s.Epsilon)
	}
	return nil
}

// gramMatrix returns the bias-augmented Gram matrix K(X_i, X_j) + 1,
// flat and row-major. Each entry is evaluated once, as K(X_i, X_j)
// with i ≥ j, and mirrored.
func gramMatrix(kernel Kernel, X [][]float64) []float64 {
	n := len(X)
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(X[i], X[j]) + 1
			gram[i*n+j] = v
			gram[j*n+i] = v
		}
	}
	return gram
}

// checkDiagonal rejects a Gram matrix the dual solver cannot divide
// by: coordinate descent scales every update by K'_ii.
func checkDiagonal(gram []float64, n int) error {
	for i := 0; i < n; i++ {
		if gram[i*n+i] <= 0 {
			return fmt.Errorf("regress: kernel is not positive on sample %d", i)
		}
	}
	return nil
}

// solve runs coordinate descent on the n×n bias-augmented Gram matrix,
// writing the dual coefficients into beta; beta and f (the current
// prediction at each training point) must start zeroed. It returns the
// sweeps taken and whether the last one moved no coefficient by Tol or
// more; a fit that is not converged stopped at MaxIter.
func (s *SVR) solve(gram, y, beta, f []float64) (sweeps int, converged bool) {
	maxIter := s.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	tol := s.Tol
	if tol == 0 {
		tol = 1e-6
	}
	n, eps, c := len(y), s.Epsilon, s.C
	beta, f = beta[:n], f[:n]
	for sweeps < maxIter {
		sweeps++
		var maxDelta float64
		for i := 0; i < n; i++ {
			row := gram[i*n : i*n+n]
			kii := row[i]
			// Residual excluding i's own contribution.
			r := y[i] - (f[i] - beta[i]*kii)
			// Maximize the dual in β_i alone: soft-threshold by ε,
			// scale by K'_ii, clip to the box.
			var next float64
			switch {
			case r > eps:
				next = (r - eps) / kii
			case r < -eps:
				next = (r + eps) / kii
			default:
				next = 0
			}
			next = clamp(next, -c, c)
			delta := next - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = next
			axpy(delta, row, f)
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < tol {
			return sweeps, true
		}
	}
	return sweeps, false
}

// axpy adds delta·row to f. Every element is rounded exactly as the
// plain loop `f[j] += delta * row[j]` rounds it — one product, one
// sum, no fused multiply-add — because the elements are independent
// and each is written once; the loop is only unrolled by four, with
// the bounds checks hoisted into one reslice per block.
func axpy(delta float64, row, f []float64) {
	for len(row) >= 8 && len(f) >= 8 {
		r, g := row[:8:8], f[:8:8]
		g[0] += delta * r[0]
		g[1] += delta * r[1]
		g[2] += delta * r[2]
		g[3] += delta * r[3]
		g[4] += delta * r[4]
		g[5] += delta * r[5]
		g[6] += delta * r[6]
		g[7] += delta * r[7]
		row, f = row[8:], f[8:]
	}
	f = f[:len(row)]
	for j, v := range row {
		f[j] += delta * v
	}
}

// Predict evaluates the fitted function.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		panic("regress: SVR.Predict before Fit")
	}
	var out float64
	for i, sv := range s.train {
		out += s.beta[i] * (s.Kernel.Eval(sv, x) + 1)
	}
	return out
}

// SupportVectors returns how many training points carry non-zero dual
// weight.
func (s *SVR) SupportVectors() int { return len(s.beta) }

// Sweeps returns how many coordinate-descent sweeps the last Fit ran.
func (s *SVR) Sweeps() int { return s.sweeps }

// Converged reports whether the last Fit stopped because a sweep moved
// no coefficient by Tol or more. A fit that did not converge stopped at
// MaxIter: its coefficients are that sweep's iterate, not the optimum.
func (s *SVR) Converged() bool { return s.converged }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
