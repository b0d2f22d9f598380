package regress

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file keeps three references for the differential tests.
//
// refSVR fits the same model as SVR by plain cyclic coordinate descent
// on a [][]float64 Gram matrix. It has no sweep cap: it runs until no
// sweep moves a coefficient by tol, which on a small problem is the
// optimum to far below any tolerance the tests ask of the active-set
// solver.
//
// refSearch cross-validates every (kernel, C, ε) point on its own
// through CrossValScore and SVR.Fit. SVRSearch's tasks must reproduce
// it bit for bit.
//
// refSolve is the active-set solve refactoring all of K'_FF on every
// Newton step. solve, which recomputes only the factor rows whose free
// coefficients changed, must reproduce it bit for bit.

type refSVR struct {
	Kernel     Kernel
	C, Epsilon float64
	// tol is the step test: the descent stops after a sweep that moves
	// no coefficient by tol or more.
	tol float64

	full   []float64 // β for every training row
	sweeps int
	beta   []float64
	train  [][]float64
}

func (s *refSVR) Fit(X [][]float64, y []float64) error {
	if s.Kernel == nil {
		return fmt.Errorf("regress: SVR requires a kernel")
	}
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := s.Kernel.Eval(X[i], X[j]) + 1
			gram[i][j] = v
			gram[j][i] = v
		}
	}
	beta := make([]float64, n)
	f := make([]float64, n)
	for s.sweeps = 1; ; s.sweeps++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			kii := gram[i][i]
			if kii <= 0 {
				return fmt.Errorf("regress: kernel is not positive on sample %d", i)
			}
			r := y[i] - (f[i] - beta[i]*kii)
			var next float64
			switch {
			case r > s.Epsilon:
				next = (r - s.Epsilon) / kii
			case r < -s.Epsilon:
				next = (r + s.Epsilon) / kii
			default:
				next = 0
			}
			next = min(max(next, -s.C), s.C)
			delta := next - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = next
			for j := 0; j < n; j++ {
				f[j] += delta * gram[i][j]
			}
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < s.tol {
			break
		}
	}
	s.full = beta
	s.beta = s.beta[:0]
	s.train = s.train[:0]
	for i, b := range beta {
		if b != 0 {
			s.beta = append(s.beta, b)
			s.train = append(s.train, append([]float64(nil), X[i]...))
		}
	}
	return nil
}

func (s *refSVR) Predict(x []float64) float64 {
	var out float64
	for i, sv := range s.train {
		out += s.beta[i] * (s.Kernel.Eval(sv, x) + 1)
	}
	return out
}

// refSearch is the per-point search: every (kernel, C, ε) is
// cross-validated separately on the folds drawn from foldSeed, and the
// winner is the first strict minimum, per kernel and then across
// kernels.
func refSearch(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, foldSeed int64, score Scorer) (kern Kernel, c, eps, best float64, err error) {
	best = -1
	for _, kk := range kernels {
		kBest := -1.0
		var kC, kEps float64
		for _, cc := range grid.Cs {
			for _, ee := range grid.Epsilons {
				factory := func() Regressor { return &SVR{Kernel: kk, C: cc, Epsilon: ee} }
				mean, _, cvErr := CrossValScore(factory, X, y, k, stats.NewRng(foldSeed), score)
				if cvErr != nil {
					return nil, 0, 0, 0, cvErr
				}
				if kBest < 0 || mean < kBest {
					kBest, kC, kEps = mean, cc, ee
				}
			}
		}
		if best < 0 || kBest < best {
			kern, c, eps, best = kk, kC, kEps, kBest
		}
	}
	return kern, c, eps, best, nil
}

// refSolve is solve with refNewtonStep in place of newtonStep.
func refSolve(s *SVR, gram, y []float64, w *activeSet) (iterations int, converged bool) {
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
	stationary := true
	for {
		if !stationary {
			if iterations == maxIter {
				return iterations, false
			}
			iterations++
			stationary = w.refNewtonStep(gram, y, s.C, s.Epsilon, ridge)
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
		if worst > tol {
			w.release(j, y[j]-w.f[j])
		}
		stationary = false
	}
}

// refNewtonStep is newtonStep factoring the whole of K'_FF + ridge·I,
// row-major with stride |F|, on every step.
func (w *activeSet) refNewtonStep(gram, y []float64, c, eps, ridge float64) (full bool) {
	n, m := len(w.f), len(w.free)
	L, p := w.chol[:m*m], w.step[:m]
	for a, i := range w.free {
		p[a] = w.freeResidual(i, y, eps)
		row := gram[i*n:]
		for b := 0; b <= a; b++ {
			v := row[w.free[b]]
			for k := 0; k < b; k++ {
				v -= L[a*m+k] * L[b*m+k]
			}
			if b < a {
				L[a*m+b] = v / L[b*m+b]
				continue
			}
			L[a*m+a] = math.Sqrt(max(v+ridge, ridge))
		}
	}
	for a := 0; a < m; a++ {
		v := p[a]
		for k := 0; k < a; k++ {
			v -= L[a*m+k] * p[k]
		}
		p[a] = v / L[a*m+a]
	}
	for a := m - 1; a >= 0; a-- {
		v := p[a]
		for k := a + 1; k < m; k++ {
			v -= L[k*m+a] * p[k]
		}
		p[a] = v / L[a*m+a]
	}

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
	return len(w.free) == 0
}
