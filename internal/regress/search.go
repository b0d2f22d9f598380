package regress

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// SVRSearch is a k-fold cross-validated SVR grid search split into
// independent tasks, one per (kernel, fold). A task builds its fold's
// bias-augmented Gram matrix once and fits every (C, ε) of the grid
// against it, so the grid shares one O(n²) kernel evaluation per fold
// instead of paying it per fit. Tasks share no mutable state: a caller
// may run them on any goroutines, in any order (the campaign engine
// does, and so does Run), and Select combines their results into
// exactly the winner and score a point-by-point search through
// CrossValScore would pick.
type SVRSearch struct {
	kernels []Kernel
	grid    SVRGrid
	x       [][]float64
	y       []float64
	folds   [][]int
	score   Scorer
	// maxIter is each fit's SVR.maxIter.
	maxIter int
}

// NewSVRSearch prepares a search of every kernel × (C, ε) point of the
// grid, scored by the mean over k folds — drawn from foldRng as KFold
// draws them — of score on each fold's held-out rows.
func NewSVRSearch(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, foldRng *stats.Rng, score Scorer) (*SVRSearch, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("regress: no kernels to search")
	}
	if len(grid.Cs) == 0 || len(grid.Epsilons) == 0 {
		return nil, fmt.Errorf("regress: empty hyperparameter grid")
	}
	for _, kernel := range kernels {
		for _, c := range grid.Cs {
			for _, eps := range grid.Epsilons {
				if err := (&SVR{Kernel: kernel, C: c, Epsilon: eps}).validate(); err != nil {
					return nil, err
				}
			}
		}
	}
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return nil, err
	}
	folds, err := KFold(n, k, foldRng)
	if err != nil {
		return nil, err
	}
	return &SVRSearch{kernels: kernels, grid: grid, x: X, y: y, folds: folds, score: score}, nil
}

// NewKernelSearch is the search GridSearchSVRKernels runs: it scores by
// MAE and draws its folds from rng exactly as GridSearchSVRKernels
// does, so running its tasks anywhere reproduces that function's pick.
func NewKernelSearch(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, rng *stats.Rng) (*SVRSearch, error) {
	foldSeed := stats.NewRng(rng.Int63()).Int63()
	return NewSVRSearch(kernels, grid, X, y, k, stats.NewRng(foldSeed), stats.MAE)
}

// Tasks returns the number of (kernel, fold) tasks, kernel-major:
// task t fits kernel t/k on every fold but t%k.
func (s *SVRSearch) Tasks() int { return len(s.kernels) * len(s.folds) }

// TaskKey names task t, e.g. "rbf(sigma=0.1)/fold2".
func (s *SVRSearch) TaskKey(t int) string {
	return fmt.Sprintf("%v/fold%d", s.kernels[t/len(s.folds)], t%len(s.folds))
}

// TaskResult is one (kernel, fold) task's output.
type TaskResult struct {
	// Scores holds the held-out score of every grid point, C-major:
	// Scores[ci*len(Epsilons)+ei] is (Cs[ci], Epsilons[ei]).
	Scores []float64
	// Capped counts the fits that stopped at the iteration cap without
	// converging.
	Capped int
}

// RunTask fits every grid point on task t's fold and scores it on the
// fold's held-out rows. Each fit runs the same arithmetic as SVR.Fit
// on the fold's training rows and each prediction the same as
// SVR.Predict, so every score is bit-identical to CrossValScore's.
func (s *SVRSearch) RunTask(t int) (*TaskResult, error) {
	kernel, fold := s.kernels[t/len(s.folds)], t%len(s.folds)
	held := make([]bool, len(s.x))
	for _, i := range s.folds[fold] {
		held[i] = true
	}
	// Rows keep their index order on both sides, as CrossValScore
	// splits them.
	var trX, teX [][]float64
	var trY, teY []float64
	for i, row := range s.x {
		if held[i] {
			teX, teY = append(teX, row), append(teY, s.y[i])
		} else {
			trX, trY = append(trX, row), append(trY, s.y[i])
		}
	}
	n := len(trX)
	gram := gramMatrix(kernel, trX)
	if err := checkDiagonal(gram, n); err != nil {
		return nil, fmt.Errorf("regress: fold %d: %w", fold, err)
	}
	// cross[t*n+i] is SVR.Predict's K(x_i, x_t) + 1 for held-out row t.
	cross := make([]float64, len(teX)*n)
	for te, x := range teX {
		for i, sv := range trX {
			cross[te*n+i] = kernel.Eval(sv, x) + 1
		}
	}

	res := &TaskResult{Scores: make([]float64, 0, len(s.grid.Cs)*len(s.grid.Epsilons))}
	w, pred := newActiveSet(n), make([]float64, len(teX))
	for _, c := range s.grid.Cs {
		for _, eps := range s.grid.Epsilons {
			m := SVR{Kernel: kernel, C: c, Epsilon: eps, maxIter: s.maxIter}
			if _, converged := m.solve(gram, trY, w); !converged {
				res.Capped++
			}
			for te := range pred {
				row := cross[te*n : te*n+n]
				var out float64
				for i, b := range w.beta {
					if b != 0 {
						out += b * row[i]
					}
				}
				pred[te] = out
			}
			res.Scores = append(res.Scores, s.score(pred, teY))
		}
	}
	return res, nil
}

// SearchResult is a search's winner.
type SearchResult struct {
	Kernel     Kernel
	C, Epsilon float64
	// Score is the winner's mean held-out score over the folds.
	Score float64
	// Fits counts the SVR fits the search ran; Capped those that
	// stopped at the iteration cap without converging.
	Fits, Capped int
}

// Factory returns a constructor for the winning model.
func (r SearchResult) Factory() Factory {
	return func() Regressor { return &SVR{Kernel: r.Kernel, C: r.C, Epsilon: r.Epsilon} }
}

// Select combines every task's result (results[t] from RunTask(t)) into
// the winner: per kernel the first grid point, C-major, with the
// lowest mean score, then the first kernel whose best is lowest.
func (s *SVRSearch) Select(results []*TaskResult) SearchResult {
	k, nEps := len(s.folds), len(s.grid.Epsilons)
	best := SearchResult{Score: -1}
	perFold := make([]float64, k)
	for kk, kernel := range s.kernels {
		kBest := SearchResult{Kernel: kernel, Score: -1}
		for ci, c := range s.grid.Cs {
			for ei, eps := range s.grid.Epsilons {
				for f := range perFold {
					perFold[f] = results[kk*k+f].Scores[ci*nEps+ei]
				}
				if mean := stats.Mean(perFold); kBest.Score < 0 || mean < kBest.Score {
					kBest.C, kBest.Epsilon, kBest.Score = c, eps, mean
				}
			}
		}
		if best.Score < 0 || kBest.Score < best.Score {
			best = kBest
		}
	}
	for _, r := range results {
		best.Fits += len(r.Scores)
		best.Capped += r.Capped
	}
	return best
}

// Run runs every task on up to min(GOMAXPROCS, Tasks()) goroutines,
// waits for all of them and selects the winner. Each result lands in
// its task's slot, so Select sees what a serial loop would give it. If
// tasks fail, the lowest failing task decides the outcome, as it would
// in a serial loop: Run returns its error, or re-raises its panic on
// the calling goroutine.
func (s *SVRSearch) Run() (SearchResult, error) {
	results := make([]*TaskResult, s.Tasks())
	errs := make([]error, len(results))
	panics := make([]any, len(results))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(results)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(results) {
					return
				}
				// A panic ends its task, not the goroutine's share.
				func() {
					defer func() { panics[t] = recover() }()
					results[t], errs[t] = s.RunTask(t)
				}()
			}
		}()
	}
	wg.Wait()
	for t := range results {
		if panics[t] != nil {
			panic(panics[t])
		}
		if errs[t] != nil {
			return SearchResult{}, errs[t]
		}
	}
	return s.Select(results), nil
}
