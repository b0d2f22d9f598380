// Package regress implements the regression toolkit the paper's
// performance models are built from (§III-B, §IV-C): ordinary
// least-squares linear regression (univariate and multivariate),
// ε-insensitive support vector regression with polynomial and RBF
// kernels, principal component analysis for feature preprocessing,
// min-max normalization, k-fold cross-validation, and grid search
// over SVR hyperparameters.
//
// Everything is implemented from scratch on the standard library. The
// datasets are tiny (tens of samples), but the paper's grid search
// fits thousands of SVRs on them, so the SVR path is built for speed
// without giving up exactness: SVRSearch shares one flat Gram matrix
// per (kernel, fold) across the whole (C, ε) grid, splits the search
// into tasks a caller can run in parallel, and reproduces the plain
// one-fit-at-a-time search bit for bit. Nothing here starts a
// goroutine.
package regress

import "fmt"

// Regressor is a trainable single-output prediction model.
type Regressor interface {
	// Fit trains on rows X (n samples × d features) and targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature vector. It
	// panics if called before a successful Fit or with the wrong
	// dimension, both of which are programming errors.
	Predict(x []float64) float64
}

// PredictAll applies the regressor to every row.
func PredictAll(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

// checkMatrix validates a design matrix and target vector.
func checkMatrix(X [][]float64, y []float64) (n, d int, err error) {
	n = len(X)
	if n == 0 {
		return 0, 0, fmt.Errorf("regress: empty training set")
	}
	if len(y) != n {
		return 0, 0, fmt.Errorf("regress: %d rows but %d targets", n, len(y))
	}
	d = len(X[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("regress: zero-dimensional features")
	}
	for i, row := range X {
		if len(row) != d {
			return 0, 0, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), d)
		}
	}
	return n, d, nil
}

// Column extracts one feature column as a vector, a convenience for
// assembling univariate models from a shared dataset.
func Column(X [][]float64, j int) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = row[j]
	}
	return out
}

// AsMatrix lifts a single feature vector into an n×1 design matrix.
func AsMatrix(xs []float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = []float64{x}
	}
	return out
}
