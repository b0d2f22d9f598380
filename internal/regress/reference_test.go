package regress

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// This file keeps the original SVR implementation as a reference for
// the differential tests: a fit that rebuilds its own [][]float64 Gram
// matrix and runs the plain coordinate-descent loop, and a grid search
// that cross-validates every (kernel, C, ε) point on its own through
// CrossValScore. The optimized path must reproduce it bit for bit.

// refSVR is the original SVR: same model, same fitted function.
type refSVR struct {
	Kernel     Kernel
	C, Epsilon float64

	beta  []float64
	train [][]float64
}

func (s *refSVR) Fit(X [][]float64, y []float64) error {
	if s.Kernel == nil {
		return fmt.Errorf("regress: SVR requires a kernel")
	}
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	const maxIter, tol = 1000, 1e-6
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
	for iter := 0; iter < maxIter; iter++ {
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
			next = clamp(next, -s.C, s.C)
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
		if maxDelta < tol {
			break
		}
	}
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

// refSearch is the original per-point search: every (kernel, C, ε)
// is cross-validated separately on the folds drawn from foldSeed, and
// the winner is the first strict minimum, per kernel and then across
// kernels.
func refSearch(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, foldSeed int64, score Scorer) (kern Kernel, c, eps, best float64, err error) {
	best = -1
	for _, kk := range kernels {
		kBest := -1.0
		var kC, kEps float64
		for _, cc := range grid.Cs {
			for _, ee := range grid.Epsilons {
				factory := func() Regressor { return &refSVR{Kernel: kk, C: cc, Epsilon: ee} }
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
