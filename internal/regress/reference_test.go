package regress

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file keeps two references for the differential tests.
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
