package regress

import (
	"math"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/train"
)

// checkpointSearchData is Table IV's SVR input: every zoo model's
// total checkpoint size (min-max normalized) against five noisy
// checkpoint timings each, split 4:1 — 80 training rows, each x shared
// by up to five of them.
func checkpointSearchData(t *testing.T) ([][]float64, []float64) {
	t.Helper()
	rng := stats.NewRng(1)
	var X [][]float64
	var y []float64
	for _, m := range model.Zoo() {
		for i := 0; i < 5; i++ {
			X = append(X, []float64{float64(m.CkptDataBytes+m.CkptMetaBytes+m.CkptIndexBytes) / 1e6})
			y = append(y, rng.LogNormal(train.CheckpointSeconds(m), 0.025))
		}
	}
	var scaler MinMaxScaler
	X, err := scaler.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	trX, trY, _, _, err := TrainTestSplit(X, y, 0.8, stats.NewRng(2))
	if err != nil {
		t.Fatal(err)
	}
	return trX, trY
}

// plainGram is K(x_i, x_j) + 1, one entry at a time.
func plainGram(kernel Kernel, X [][]float64) [][]float64 {
	K := make([][]float64, len(X))
	for i := range K {
		K[i] = make([]float64, len(X))
		for j := range K[i] {
			K[i][j] = kernel.Eval(X[i], X[j]) + 1
		}
	}
	return K
}

// kktViolation returns β's largest violation of the dual's optimality
// conditions, with K'β recomputed by a plain loop: r = y − K'β must
// satisfy |r_i| ≤ ε where β_i = 0, r_i ≥ ε where β_i = C, r_i ≤ −ε
// where β_i = −C, and r_i = ε·sign(β_i) in between.
func kktViolation(K [][]float64, y, beta []float64, c, eps float64) float64 {
	var worst float64
	for i, row := range K {
		var f float64
		for j, b := range beta {
			if b != 0 {
				f += b * row[j]
			}
		}
		r := y[i] - f
		var v float64
		switch b := beta[i]; {
		case b == 0:
			v = math.Abs(r) - eps
		case b == c:
			v = eps - r
		case b == -c:
			v = r + eps
		case b > 0:
			v = math.Abs(r - eps)
		default:
			v = math.Abs(r + eps)
		}
		worst = max(worst, v)
	}
	return worst
}

// dualObjective is the dual the solver maximizes:
// yᵀβ − ε‖β‖₁ − ½βᵀK'β.
func dualObjective(K [][]float64, y, beta []float64, eps float64) float64 {
	var lin, quad float64
	for i, b := range beta {
		lin += y[i]*b - eps*math.Abs(b)
		for j, b2 := range beta {
			quad += b * K[i][j] * b2
		}
	}
	return lin - quad/2
}

func maxAbs(y []float64) float64 {
	var m float64
	for _, v := range y {
		m = max(m, math.Abs(v))
	}
	return m
}

// solverSearch is one of the two searches the solver oracles run on
// the paper grid with five folds.
type solverSearch struct {
	name    string
	kernels []Kernel
	X       [][]float64
	y       []float64
}

// solverSearches are Table IV's search (five RBF bandwidths × five
// folds of 64 rows, five rows per x) and a degree-2 polynomial search
// on one feature, whose Gram matrix has rank 3.
func solverSearches(t *testing.T) []solverSearch {
	ckptX, ckptY := checkpointSearchData(t)
	polyX, polyY := randomProblem(stats.NewRng(40), 20, 1)
	return []solverSearch{
		{"table4", []Kernel{RBF{Sigma: 0.05}, RBF{Sigma: 0.1}, RBF{Sigma: 0.2}, RBF{Sigma: 0.35}, RBF{Sigma: 0.5}}, ckptX, ckptY},
		{"poly2", []Kernel{Polynomial{Degree: 2, Coef0: 0.5}, Polynomial{Degree: 2, Coef0: 1}, Polynomial{Degree: 2, Coef0: 2}}, polyX, polyY},
	}
}

// TestSVRSearchFitsSatisfyKKT certifies every fit of the solver
// searches as optimal. Each β must satisfy the KKT conditions to
// 1e-9·max|y| and each search must count no capped fit.
func TestSVRSearchFitsSatisfyKKT(t *testing.T) {
	grid := PaperSVRGrid()
	for _, tc := range solverSearches(t) {
		search, err := NewSVRSearch(tc.kernels, grid, tc.X, tc.y, 5, stats.NewRng(3), stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		res, err := search.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want := len(tc.kernels) * 5 * len(grid.Cs) * len(grid.Epsilons); res.Fits != want || res.Capped != 0 {
			t.Errorf("%s: %d fits, %d capped; want %d fits, none capped", tc.name, res.Fits, res.Capped, want)
		}
		var worst float64
		for _, kernel := range tc.kernels {
			for fold := range search.folds {
				trX, trY := foldTraining(search, fold)
				gram, K := gramMatrix(kernel, trX), plainGram(kernel, trX)
				w := newActiveSet(len(trX))
				tol := 1e-9 * maxAbs(trY)
				for _, c := range grid.Cs {
					for _, eps := range grid.Epsilons {
						m := SVR{Kernel: kernel, C: c, Epsilon: eps}
						iters, converged := m.solve(gram, trY, w)
						v := kktViolation(K, trY, w.beta, c, eps)
						if !converged || v > tol {
							t.Fatalf("%s %v fold %d C=%v ε=%v: converged=%v after %d iterations, KKT violation %.3g > %.3g",
								tc.name, kernel, fold, c, eps, converged, iters, v, tol)
						}
						worst = max(worst, v/tol)
					}
				}
			}
		}
		t.Logf("%s: largest KKT violation %.2g of the tolerance", tc.name, worst)
	}
}

// TestSVRSolveMatchesFullRefactorization runs every fit of the solver
// searches twice: through solve, which keeps the Cholesky rows of the
// unchanged part of the free set, and through refSolve, which
// refactors all of K'_FF on every Newton step. β, f and the iteration
// count must agree bit for bit. Each workspace is reused across the
// grid, as a search task reuses its own.
func TestSVRSolveMatchesFullRefactorization(t *testing.T) {
	grid := PaperSVRGrid()
	for _, tc := range solverSearches(t) {
		search, err := NewSVRSearch(tc.kernels, grid, tc.X, tc.y, 5, stats.NewRng(3), stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		var fits, steps int
		for _, kernel := range tc.kernels {
			for fold := range search.folds {
				trX, trY := foldTraining(search, fold)
				gram := gramMatrix(kernel, trX)
				got, want := newActiveSet(len(trX)), newActiveSet(len(trX))
				for _, c := range grid.Cs {
					for _, eps := range grid.Epsilons {
						m := SVR{Kernel: kernel, C: c, Epsilon: eps}
						iters, conv := m.solve(gram, trY, got)
						wantIters, wantConv := refSolve(&m, gram, trY, want)
						if iters != wantIters || conv != wantConv ||
							!slices.EqualFunc(got.beta, want.beta, sameBits) || !slices.EqualFunc(got.f, want.f, sameBits) {
							t.Fatalf("%s %v fold %d C=%v ε=%v: %d iterations (converged=%v), full refactorization %d (converged=%v); β or f differ in their bits",
								tc.name, kernel, fold, c, eps, iters, conv, wantIters, wantConv)
						}
						fits++
						steps += iters
					}
				}
			}
		}
		t.Logf("%s: %d fits, %d Newton steps, bit-identical", tc.name, fits, steps)
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// foldTraining returns the rows a search's task trains on for fold,
// in index order.
func foldTraining(s *SVRSearch, fold int) ([][]float64, []float64) {
	held := make([]bool, len(s.x))
	for _, i := range s.folds[fold] {
		held[i] = true
	}
	var trX [][]float64
	var trY []float64
	for i, row := range s.x {
		if !held[i] {
			trX, trY = append(trX, row), append(trY, s.y[i])
		}
	}
	return trX, trY
}

// TestSVRFitMatchesConvergedReference compares the active-set fit with
// coordinate descent run until its own step test passes at 1e-13, on
// three small problems: five noisy targets per x under an RBF kernel
// (a singular Gram matrix), a degree-2 polynomial kernel on one
// feature (rank 3), and a well-spread RBF problem. The fit's dual
// objective must reach the reference's to 1e-9 relative, and its
// predictions on held-out rows must agree to 1e-6·max|y|.
func TestSVRFitMatchesConvergedReference(t *testing.T) {
	rng := stats.NewRng(77)
	var dupX [][]float64
	var dupY []float64
	for _, x := range []float64{0, 0.3, 0.55, 1} {
		for i := 0; i < 5; i++ {
			dupX = append(dupX, []float64{x})
			dupY = append(dupY, 1+x*x+rng.Uniform(-0.03, 0.03))
		}
	}
	polyX, polyY := randomProblem(stats.NewRng(78), 14, 1)
	wideX, wideY := randomProblem(stats.NewRng(79), 14, 1)
	heldOut := AsMatrix([]float64{0.05, 0.2, 0.42, 0.61, 0.77, 0.93})
	cases := []struct {
		name       string
		kernel     Kernel
		c, epsilon float64
		X          [][]float64
		y          []float64
	}{
		{"duplicate-x rbf", RBF{Sigma: 0.2}, 10, 0.01, dupX, dupY},
		{"rank-3 poly", Polynomial{Degree: 2, Coef0: 1}, 50, 0.02, polyX, polyY},
		{"spread rbf", RBF{Sigma: 0.08}, 100, 0.05, wideX, wideY},
	}
	for _, tc := range cases {
		ref := &refSVR{Kernel: tc.kernel, C: tc.c, Epsilon: tc.epsilon, tol: 1e-13}
		if err := ref.Fit(tc.X, tc.y); err != nil {
			t.Fatal(err)
		}
		got := &SVR{Kernel: tc.kernel, C: tc.c, Epsilon: tc.epsilon}
		if err := got.Fit(tc.X, tc.y); err != nil {
			t.Fatal(err)
		}
		if !got.Converged() {
			t.Fatalf("%s: not converged after %d iterations", tc.name, got.Iterations())
		}
		w := newActiveSet(len(tc.X))
		got.solve(gramMatrix(tc.kernel, tc.X), tc.y, w)
		K := plainGram(tc.kernel, tc.X)
		dGot, dRef := dualObjective(K, tc.y, w.beta, tc.epsilon), dualObjective(K, tc.y, ref.full, tc.epsilon)
		if dGot < dRef-1e-9*math.Abs(dRef) {
			t.Errorf("%s: dual objective %.15g below the reference's %.15g", tc.name, dGot, dRef)
		}
		tol := 1e-6 * maxAbs(tc.y)
		for _, x := range append(heldOut, tc.X...) {
			if g, r := got.Predict(x), ref.Predict(x); math.Abs(g-r) > tol {
				t.Errorf("%s: Predict(%v) = %.10g, reference %.10g", tc.name, x, g, r)
			}
		}
		t.Logf("%s: %d iterations, %d support vectors; reference %d sweeps, %d support vectors; dual %.12g vs %.12g",
			tc.name, got.Iterations(), got.SupportVectors(), ref.sweeps, len(ref.beta), dGot, dRef)
	}
}
