package regress

import (
	"fmt"
	"math"
)

// SVR is ε-insensitive support vector regression, the model family the
// paper finds most accurate for both step-time (Table II) and
// checkpoint-time (Table IV) prediction.
//
// The bias-augmented kernel K'(a,b) = K(a,b) + 1 absorbs the intercept
// into the RKHS and removes the dual's equality constraint, leaving the
// box-constrained convex problem
//
//	minimize ½βᵀK'β − yᵀβ + ε‖β‖₁  subject to |β_i| ≤ C,
//
// which a primal active-set method solves exactly (see solve). The
// fitted model is
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

	// maxIter overrides maxIterations(n) when positive, so tests can
	// reach the not-converged path.
	maxIter int

	beta       []float64
	train      [][]float64
	fitted     bool
	iterations int
	converged  bool
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
	w := newActiveSet(n)
	s.iterations, s.converged = s.solve(gram, y, w)

	// Retain only support vectors for prediction.
	s.beta = s.beta[:0]
	s.train = s.train[:0]
	for i, b := range w.beta {
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

// checkDiagonal rejects a Gram matrix with a non-positive diagonal
// entry: its kernel is not positive definite, and the solver's
// Cholesky factorizations assume it is.
func checkDiagonal(gram []float64, n int) error {
	for i := 0; i < n; i++ {
		if gram[i*n+i] <= 0 {
			return fmt.Errorf("regress: kernel is not positive on sample %d", i)
		}
	}
	return nil
}

// maxIterations caps an n-row solve's Newton steps far above what any
// fit needs, so only a solve that cycles reaches it.
func maxIterations(n int) int { return 20*n + 200 }

// Coefficient states. A free coefficient keeps its sign while free:
// a step that would carry it through zero stops there and pins it.
const (
	atZero int8 = iota
	atLower
	atUpper
	freeNeg
	freePos
)

// activeSet is the solver's workspace for an n-row problem. A search
// task allocates one and reuses it across its grid; solve resets it.
type activeSet struct {
	beta  []float64 // the coefficients
	f     []float64 // K'β, updated with every step
	state []int8
	free  []int     // the free set F, in the order it was freed
	step  []float64 // the Newton step on F
	// chol is the lower Cholesky factor of K'_FF + ridge·I, row-major
	// with stride n. Row a depends only on free[:a+1], so its first
	// valid rows still factor free[:valid]: a release appends to F and
	// keeps them, a pin at position b keeps the b rows before it, and
	// newtonStep computes only the rows from valid on.
	chol  []float64
	valid int
}

func newActiveSet(n int) *activeSet {
	buf := make([]float64, 3*n+n*n)
	return &activeSet{
		beta:  buf[:n:n],
		f:     buf[n : 2*n : 2*n],
		step:  buf[2*n : 3*n : 3*n],
		chol:  buf[3*n:],
		state: make([]int8, n),
		free:  make([]int, 0, n),
	}
}

// solve minimizes the dual on the n×n bias-augmented Gram matrix with
// a primal active-set method (Nocedal & Wright, Numerical
// Optimization, Alg. 16.3), leaving β in w.beta. Every solve starts
// cold at β = 0. Each coefficient is pinned at −C, 0 or +C, or free
// with a fixed sign; on the free set F the objective is a quadratic,
// and each iteration takes one Newton step on it,
//
//	K'_FF·p = y_F − ε·sign(β_F) − f_F,  f = K'β,
//
// cut short where a free coefficient would leave its sign's box; that
// coefficient is pinned and the next step runs on the smaller F. After
// a full step β minimizes the objective over F, and the pinned
// coefficient with the largest KKT violation is freed. The solve stops
// when no violation, free or pinned, exceeds 1e-9·max|y|, judged on
// f recomputed from β, and reports the Newton steps taken and whether
// it stopped so rather than at the iteration cap.
//
// K'_FF is singular whenever two rows share their features (Table IV's
// five timings per model) and past rank 3 for a degree-2 polynomial
// kernel on one feature, so each factorization adds a ridge of
// 1e-13·max K'_ii to the diagonal. The ridge only shapes the step: the
// stop is judged on the true gradient y − K'β. On a singular block
// whose system has no solution the step runs along the null space
// until a coefficient pins, which is where the exact problem goes too.
func (s *SVR) solve(gram, y []float64, w *activeSet) (iterations int, converged bool) {
	n := len(y)
	maxIter := s.maxIter
	if maxIter <= 0 {
		maxIter = maxIterations(n)
	}
	var tol, ridge float64
	for i, v := range y {
		tol = max(tol, math.Abs(v))
		ridge = max(ridge, gram[i*n+i])
	}
	tol *= 1e-9
	ridge *= 1e-13
	w.reset()
	// β = 0 minimizes the objective over the empty free set.
	stationary := true
	for {
		if !stationary {
			if iterations == maxIter {
				return iterations, false
			}
			iterations++
			stationary = w.newtonStep(gram, y, s.C, s.Epsilon, ridge)
			continue
		}
		j, worst := w.worstPinned(y, s.Epsilon)
		if worst <= tol {
			w.recompute(gram)
			j, worst = w.worstPinned(y, s.Epsilon)
			if worst <= tol && w.worstFree(y, s.Epsilon) <= tol {
				return iterations, true
			}
		}
		// Free the worst pinned coefficient, or, if rounding left F
		// short of stationary, step on F again.
		if worst > tol {
			w.release(j, y[j]-w.f[j])
		}
		stationary = false
	}
}

func (w *activeSet) reset() {
	clear(w.beta)
	clear(w.f)
	for i := range w.state {
		w.state[i] = atZero
	}
	w.free = w.free[:0]
	w.valid = 0
}

// worstPinned returns the pinned coefficient with the largest KKT
// violation and that violation; r = y − f is the negative gradient of
// the quadratic part.
func (w *activeSet) worstPinned(y []float64, eps float64) (worst int, violation float64) {
	worst, violation = -1, math.Inf(-1)
	for i, st := range w.state {
		r := y[i] - w.f[i]
		var v float64
		switch st {
		case atZero:
			v = math.Abs(r) - eps
		case atLower:
			v = r + eps
		case atUpper:
			v = eps - r
		default:
			continue
		}
		if v > violation {
			worst, violation = i, v
		}
	}
	return worst, violation
}

// worstFree returns the largest KKT violation on F.
func (w *activeSet) worstFree(y []float64, eps float64) float64 {
	var violation float64
	for _, i := range w.free {
		violation = max(violation, math.Abs(w.freeResidual(i, y, eps)))
	}
	return violation
}

// freeResidual is y_i − f_i − ε·sign(β_i) for free coefficient i,
// which is zero where the objective is stationary in β_i.
func (w *activeSet) freeResidual(i int, y []float64, eps float64) float64 {
	if w.state[i] == freePos {
		return y[i] - w.f[i] - eps
	}
	return y[i] - w.f[i] + eps
}

// release frees pinned coefficient i with the sign its negative
// gradient r asks for.
func (w *activeSet) release(i int, r float64) {
	switch w.state[i] {
	case atLower:
		w.state[i] = freeNeg
	case atUpper:
		w.state[i] = freePos
	default:
		if r > 0 {
			w.state[i] = freePos
		} else {
			w.state[i] = freeNeg
		}
	}
	w.free = append(w.free, i)
}

// recompute rebuilds f = K'β from β, in index order.
func (w *activeSet) recompute(gram []float64) {
	n := len(w.f)
	clear(w.f)
	for j, b := range w.beta {
		if b != 0 {
			axpy(b, gram[j*n:j*n+n], w.f)
		}
	}
}

// newtonStep takes one Newton step on F, cut short at the first free
// coefficient to reach 0 or ±C, which it pins. It reports whether the
// step ran in full, leaving β stationary on F.
//
// Only the factor rows from w.valid on are computed; each runs the
// operations a full refactorization would run on the same inputs, in
// the same order, so the step is bit-identical to one.
func (w *activeSet) newtonStep(gram, y []float64, c, eps, ridge float64) (full bool) {
	n, m := len(w.f), len(w.free)
	L, p := w.chol, w.step[:m]
	for a, i := range w.free {
		p[a] = w.freeResidual(i, y, eps)
	}
	for a := w.valid; a < m; a++ {
		row, La := gram[w.free[a]*n:], L[a*n:a*n+a+1]
		for b := 0; b <= a; b++ {
			v, Lb := row[w.free[b]], L[b*n:b*n+b]
			for k, l := range Lb {
				v -= La[k] * l
			}
			if b < a {
				La[b] = v / L[b*n+b]
				continue
			}
			// The pivots of K'_FF + ridge·I are at least the ridge;
			// a smaller one is rounding.
			La[a] = math.Sqrt(max(v+ridge, ridge))
		}
	}
	w.valid = m
	// Forward then back substitution, in place.
	for a := 0; a < m; a++ {
		v := p[a]
		for k := 0; k < a; k++ {
			v -= L[a*n+k] * p[k]
		}
		p[a] = v / L[a*n+a]
	}
	for a := m - 1; a >= 0; a-- {
		v := p[a]
		for k := a + 1; k < m; k++ {
			v -= L[k*n+a] * p[k]
		}
		p[a] = v / L[a*n+a]
	}

	// The longest step, up to 1, that keeps every free coefficient
	// inside its sign's half of the box.
	alpha, block, pinTo := 1.0, -1, 0.0
	for a, i := range w.free {
		lo, hi := 0.0, c
		if w.state[i] == freeNeg {
			lo, hi = -c, 0
		}
		bound := hi
		if p[a] < 0 {
			bound = lo
		} else if p[a] == 0 {
			continue
		}
		if t := max((bound-w.beta[i])/p[a], 0); t < alpha {
			alpha, block, pinTo = t, a, bound
		}
	}
	for a, i := range w.free {
		d := alpha * p[a]
		w.beta[i] += d
		axpy(d, gram[i*n:i*n+n], w.f)
	}
	if block < 0 {
		return true
	}
	i := w.free[block]
	w.beta[i] = pinTo
	switch {
	case pinTo == 0:
		w.state[i] = atZero
	case pinTo > 0:
		w.state[i] = atUpper
	default:
		w.state[i] = atLower
	}
	w.free = append(w.free[:block], w.free[block+1:]...)
	w.valid = min(w.valid, block)
	return len(w.free) == 0
}

// axpy adds delta·row to f. The loop is unrolled by eight, with the
// bounds checks hoisted into one reslice per block.
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

// Iterations returns how many Newton steps the last Fit took.
func (s *SVR) Iterations() int { return s.iterations }

// Converged reports whether the last Fit stopped because no KKT
// violation exceeded its tolerance. A fit that did not converge
// stopped at the iteration cap: its coefficients are that step's
// iterate, not the optimum.
func (s *SVR) Converged() bool { return s.converged }
