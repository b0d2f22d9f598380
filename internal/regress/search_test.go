package regress

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
)

// randomProblem draws n samples of a noisy smooth function on d
// min-max-like features.
func randomProblem(rng *stats.Rng, n, d int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		s := 0.0
		for j := range X[i] {
			X[i][j] = rng.Uniform(0, 1)
			s += X[i][j]
		}
		y[i] = math.Sin(3*s) + 0.5*s + rng.Uniform(-0.05, 0.05)
	}
	return X, y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSVRFitMatchesReference pins the flat-Gram, unrolled fit to the
// original [][]float64 loop bit for bit. n runs from 1 to 70 so the
// eight-wide unrolled update meets every remainder.
func TestSVRFitMatchesReference(t *testing.T) {
	rng := stats.NewRng(20)
	kernels := []Kernel{RBF{Sigma: 0.1}, RBF{Sigma: 0.5}, Polynomial{Degree: 2, Coef0: 1}, LinearKernel{}}
	grid := PaperSVRGrid()
	for n := 1; n <= 70; n++ {
		X, y := randomProblem(rng, n, 1+n%3)
		kernel := kernels[n%len(kernels)]
		c := grid.Cs[rng.Intn(len(grid.Cs))]
		eps := grid.Epsilons[rng.Intn(len(grid.Epsilons))]
		got := &SVR{Kernel: kernel, C: c, Epsilon: eps}
		want := &refSVR{Kernel: kernel, C: c, Epsilon: eps}
		if err := got.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := want.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.beta, want.beta) {
			t.Fatalf("n=%d %v C=%v ε=%v: β differs from the reference\n got %v\nwant %v", n, kernel, c, eps, got.beta, want.beta)
		}
		for i := range got.train {
			if !sameBits(got.train[i], want.train[i]) {
				t.Fatalf("n=%d: support vector %d differs", n, i)
			}
		}
		x := X[rng.Intn(n)]
		if g, w := got.Predict(x), want.Predict(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("n=%d: Predict = %v, reference %v", n, g, w)
		}
	}
}

func TestSVRReportsConvergence(t *testing.T) {
	// An easy problem: a few well-separated points under a wide
	// insensitivity tube converge in a handful of sweeps.
	X := AsMatrix([]float64{0, 0.5, 1})
	y := []float64{0, 0.25, 1}
	easy := &SVR{Kernel: RBF{Sigma: 0.3}, C: 10, Epsilon: 0.05}
	if err := easy.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if !easy.Converged() || easy.Sweeps() < 1 || easy.Sweeps() >= 1000 {
		t.Fatalf("easy fit: converged=%v after %d sweeps, want converged under the cap", easy.Converged(), easy.Sweeps())
	}

	capped := &SVR{Kernel: RBF{Sigma: 0.3}, C: 10, Epsilon: 0.05, MaxIter: 1}
	if err := capped.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if capped.Converged() || capped.Sweeps() != 1 {
		t.Fatalf("MaxIter 1: converged=%v after %d sweeps, want not converged after 1", capped.Converged(), capped.Sweeps())
	}
}

// smallGrid keeps the reference search, which refits every point from
// scratch, cheap enough to run across many configurations.
var smallGrid = SVRGrid{Cs: []float64{10, 50, 100}, Epsilons: []float64{0.01, 0.04, 0.1}}

// TestSVRSearchMatchesReference runs the task search against the
// original point-by-point CrossValScore search: same (kernel, C, ε)
// and a bit-equal score, under MAE and MAPE, k from 2 to 5, for RBF
// and polynomial kernel families.
func TestSVRSearchMatchesReference(t *testing.T) {
	families := map[string][]Kernel{
		"rbf":  {RBF{Sigma: 0.05}, RBF{Sigma: 0.2}, RBF{Sigma: 0.5}},
		"poly": {Polynomial{Degree: 2, Coef0: 0.5}, Polynomial{Degree: 2, Coef0: 2}},
	}
	scorers := map[string]Scorer{"mae": stats.MAE, "mape": stats.MAPE}
	rng := stats.NewRng(31)
	for _, fam := range []string{"rbf", "poly"} {
		for _, sc := range []string{"mae", "mape"} {
			for k := 2; k <= 5; k++ {
				name := fmt.Sprintf("%s/%s/k=%d", fam, sc, k)
				X, y := randomProblem(rng, 10+2*k, 1)
				for i := range y {
					y[i] += 2 // keep MAPE away from zero targets
				}
				foldSeed := rng.Int63()
				kern, c, eps, score, err := refSearch(families[fam], smallGrid, X, y, k, foldSeed, scorers[sc])
				if err != nil {
					t.Fatal(err)
				}
				search, err := NewSVRSearch(families[fam], smallGrid, X, y, k, stats.NewRng(foldSeed), scorers[sc])
				if err != nil {
					t.Fatal(err)
				}
				got, err := search.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got.Kernel != kern || got.C != c || got.Epsilon != eps || math.Float64bits(got.Score) != math.Float64bits(score) {
					t.Errorf("%s: search picked (%v, C=%v, ε=%v, score %v), reference (%v, C=%v, ε=%v, score %v)",
						name, got.Kernel, got.C, got.Epsilon, got.Score, kern, c, eps, score)
				}
				if want := len(families[fam]) * k * len(smallGrid.Cs) * len(smallGrid.Epsilons); got.Fits != want {
					t.Errorf("%s: %d fits, want %d", name, got.Fits, want)
				}
			}
		}
	}
}

// TestGridSearchSVRKernelsMatchesReference checks the public entry
// point derives its folds exactly as before: one Int63 from rng seeds
// the per-kernel searches, whose first Int63 seeds the partition.
func TestGridSearchSVRKernelsMatchesReference(t *testing.T) {
	X, y := randomProblem(stats.NewRng(5), 30, 1)
	kernels := []Kernel{RBF{Sigma: 0.1}, RBF{Sigma: 0.35}}
	_, kern, c, eps, mae, err := GridSearchSVRKernels(kernels, smallGrid, X, y, 5, stats.NewRng(9))
	if err != nil {
		t.Fatal(err)
	}
	foldSeed := stats.NewRng(stats.NewRng(9).Int63()).Int63()
	wk, wc, we, wm, err := refSearch(kernels, smallGrid, X, y, 5, foldSeed, stats.MAE)
	if err != nil {
		t.Fatal(err)
	}
	if kern != wk || c != wc || eps != we || math.Float64bits(mae) != math.Float64bits(wm) {
		t.Fatalf("GridSearchSVRKernels = (%v, %v, %v, %v), reference (%v, %v, %v, %v)", kern, c, eps, mae, wk, wc, we, wm)
	}
}

// TestSVRSearchTieKeepsFirst builds a total tie: two kernels with the
// same Gram matrix, and an ε wider than every target so no coefficient
// ever moves. The first kernel and the first grid point must win, as
// the point-by-point search's strict comparisons pick them.
func TestSVRSearchTieKeepsFirst(t *testing.T) {
	X, y := randomProblem(stats.NewRng(8), 12, 2)
	for i := range y {
		y[i] = 0.5 + 0.1*float64(i%3)
	}
	kernels := []Kernel{LinearKernel{}, Polynomial{Degree: 1}}
	grid := SVRGrid{Cs: []float64{10, 20}, Epsilons: []float64{5, 6}}
	search, err := NewSVRSearch(kernels, grid, X, y, 3, stats.NewRng(4), stats.MAE)
	if err != nil {
		t.Fatal(err)
	}
	got, err := search.Run()
	if err != nil {
		t.Fatal(err)
	}
	kern, c, eps, score, err := refSearch(kernels, grid, X, y, 3, 4, stats.MAE)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel != kernels[0] || got.C != 10 || got.Epsilon != 5 {
		t.Fatalf("tie broken toward (%v, %v, %v), want the first point", got.Kernel, got.C, got.Epsilon)
	}
	if got.Kernel != kern || got.C != c || got.Epsilon != eps || math.Float64bits(got.Score) != math.Float64bits(score) {
		t.Fatalf("tie: search (%v, %v, %v, %v), reference (%v, %v, %v, %v)", got.Kernel, got.C, got.Epsilon, got.Score, kern, c, eps, score)
	}
}

// TestSVRSearchCountsCappedFits compares the search's capped-fit count
// with SVR.Converged over the same fold fits, and checks that tasks run
// concurrently, as campaign units run them, select what a serial run
// selects.
func TestSVRSearchCountsCappedFits(t *testing.T) {
	X, y := randomProblem(stats.NewRng(12), 25, 1)
	kernels := []Kernel{RBF{Sigma: 0.05}, RBF{Sigma: 0.5}}
	search, err := NewSVRSearch(kernels, smallGrid, X, y, 4, stats.NewRng(6), stats.MAE)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*TaskResult, search.Tasks())
	errs := make([]error, search.Tasks())
	var wg sync.WaitGroup
	for t0 := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[t0], errs[t0] = search.RunTask(t0)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	got := search.Select(results)
	serial, err := search.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != serial {
		t.Fatalf("reverse-order tasks selected %+v, serial run %+v", got, serial)
	}

	folds, err := KFold(len(X), 4, stats.NewRng(6))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, kernel := range kernels {
		for _, fold := range folds {
			held := map[int]bool{}
			for _, i := range fold {
				held[i] = true
			}
			var trX [][]float64
			var trY []float64
			for i := range X {
				if !held[i] {
					trX, trY = append(trX, X[i]), append(trY, y[i])
				}
			}
			for _, c := range smallGrid.Cs {
				for _, eps := range smallGrid.Epsilons {
					m := &SVR{Kernel: kernel, C: c, Epsilon: eps}
					if err := m.Fit(trX, trY); err != nil {
						t.Fatal(err)
					}
					if !m.Converged() {
						want++
					}
				}
			}
		}
	}
	if got.Capped != want {
		t.Fatalf("search counted %d capped fits, SVR.Converged says %d", got.Capped, want)
	}
	if got.Capped == 0 {
		t.Fatal("expected some fits to stop at the cap on this problem")
	}
}

func TestSVRSearchValidation(t *testing.T) {
	X, y := randomProblem(stats.NewRng(1), 10, 1)
	rbf := []Kernel{RBF{Sigma: 0.2}}
	cases := map[string]func() error{
		"no kernels": func() error {
			_, err := NewSVRSearch(nil, smallGrid, X, y, 3, stats.NewRng(1), stats.MAE)
			return err
		},
		"empty grid": func() error {
			_, err := NewSVRSearch(rbf, SVRGrid{Cs: []float64{1}}, X, y, 3, stats.NewRng(1), stats.MAE)
			return err
		},
		"bad penalty": func() error {
			_, err := NewSVRSearch(rbf, SVRGrid{Cs: []float64{0}, Epsilons: []float64{0.1}}, X, y, 3, stats.NewRng(1), stats.MAE)
			return err
		},
		"too many folds": func() error {
			_, err := NewSVRSearch(rbf, smallGrid, X, y, 11, stats.NewRng(1), stats.MAE)
			return err
		},
		"non-positive kernel": func() error {
			s, err := NewSVRSearch([]Kernel{Polynomial{Degree: 1, Coef0: -5}}, smallGrid, X, y, 3, stats.NewRng(1), stats.MAE)
			if err != nil {
				return err
			}
			_, err = s.Run()
			return err
		},
	}
	for name, run := range cases {
		if run() == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
