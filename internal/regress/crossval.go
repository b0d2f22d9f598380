package regress

import (
	"fmt"

	"repro/internal/stats"
)

// TrainTestSplit shuffles indices and splits rows into train and test
// sets with the given train fraction (the paper uses 4:1, i.e. 0.8).
func TrainTestSplit(X [][]float64, y []float64, trainFrac float64, rng *stats.Rng) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("regress: train fraction %v outside (0,1)", trainFrac)
	}
	perm := rng.Perm(n)
	nTrain := int(float64(n)*trainFrac + 0.5)
	if nTrain == 0 {
		nTrain = 1
	}
	if nTrain == n {
		nTrain = n - 1
	}
	for i, idx := range perm {
		if i < nTrain {
			trainX = append(trainX, X[idx])
			trainY = append(trainY, y[idx])
		} else {
			testX = append(testX, X[idx])
			testY = append(testY, y[idx])
		}
	}
	return trainX, trainY, testX, testY, nil
}

// KFold partitions indices 0..n-1 into k shuffled folds of near-equal
// size.
func KFold(n, k int, rng *stats.Rng) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("regress: k=%d folds outside [2, %d]", k, n)
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// Factory builds a fresh, untrained regressor; cross-validation and
// grid search train one per fold.
type Factory func() Regressor

// Scorer maps (predictions, targets) to a loss to minimize.
type Scorer func(pred, target []float64) float64

// CrossValScore runs k-fold cross-validation under an arbitrary
// scorer, returning the per-fold scores' mean and standard deviation.
func CrossValScore(newModel Factory, X [][]float64, y []float64, k int, rng *stats.Rng, score Scorer) (mean, std float64, err error) {
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return 0, 0, err
	}
	folds, err := KFold(n, k, rng)
	if err != nil {
		return 0, 0, err
	}
	inFold := make([]int, n)
	for f, idxs := range folds {
		for _, i := range idxs {
			inFold[i] = f
		}
	}
	scores := make([]float64, 0, k)
	for f := 0; f < k; f++ {
		var trX [][]float64
		var trY, teY []float64
		var teX [][]float64
		for i := 0; i < n; i++ {
			if inFold[i] == f {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		m := newModel()
		if err := m.Fit(trX, trY); err != nil {
			return 0, 0, fmt.Errorf("regress: fold %d: %w", f, err)
		}
		scores = append(scores, score(PredictAll(m, teX), teY))
	}
	return stats.Mean(scores), stats.Std(scores), nil
}

// CrossValMAE runs k-fold cross-validation and returns the per-fold
// MAEs' mean and standard deviation — the "K-fold MAE" columns of
// Tables II and IV.
func CrossValMAE(newModel Factory, X [][]float64, y []float64, k int, rng *stats.Rng) (mean, std float64, err error) {
	return CrossValScore(newModel, X, y, k, rng, stats.MAE)
}

// SVRGrid is the paper's hyperparameter search space: penalty p in
// [10, 100] step 10 and ε in [0.01, 0.1] step 0.01 (§III-B).
type SVRGrid struct {
	Cs       []float64
	Epsilons []float64
}

// PaperSVRGrid returns the grid the paper uses.
func PaperSVRGrid() SVRGrid {
	g := SVRGrid{}
	for c := 10.0; c <= 100.0+1e-9; c += 10 {
		g.Cs = append(g.Cs, c)
	}
	for e := 0.01; e <= 0.1+1e-9; e += 0.01 {
		g.Epsilons = append(g.Epsilons, e)
	}
	return g
}

// GridSearchSVRKernels cross-validates every kernel × (C, ε)
// combination and returns the best by mean k-fold MAE. The paper grid
// searches the penalty and ε; sweeping the kernel bandwidth alongside
// is the same protocol applied to the kernel's own hyperparameter.
func GridSearchSVRKernels(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, rng *stats.Rng) (best Factory, bestKernel Kernel, bestC, bestEps, bestMAE float64, err error) {
	search, err := NewKernelSearch(kernels, grid, X, y, k, rng)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	res, err := search.Run()
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	return res.Factory(), res.Kernel, res.C, res.Epsilon, res.Score, nil
}

// GridSearchSVR cross-validates every (C, ε) pair and returns the SVR
// factory for the best pair by mean k-fold MAE, along with the chosen
// parameters and score.
func GridSearchSVR(kernel Kernel, grid SVRGrid, X [][]float64, y []float64, k int, rng *stats.Rng) (best Factory, bestC, bestEps, bestMAE float64, err error) {
	// One shared fold seed: every (C, ε) candidate is scored on the
	// same partition, so the comparison is apples to apples.
	search, err := NewSVRSearch([]Kernel{kernel}, grid, X, y, k, stats.NewRng(rng.Int63()), stats.MAE)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	res, err := search.Run()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return res.Factory(), res.C, res.Epsilon, res.Score, nil
}
