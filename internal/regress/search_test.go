package regress

import (
	"cmp"
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

func TestSVRReportsConvergence(t *testing.T) {
	// An easy problem: a few well-separated points under a wide
	// insensitivity tube converge in a handful of Newton steps.
	X := AsMatrix([]float64{0, 0.5, 1})
	y := []float64{0, 0.25, 1}
	easy := &SVR{Kernel: RBF{Sigma: 0.3}, C: 10, Epsilon: 0.05}
	if err := easy.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if !easy.Converged() || easy.Iterations() < 1 || easy.Iterations() > 2*len(X) {
		t.Fatalf("easy fit: converged=%v after %d iterations, want converged within %d", easy.Converged(), easy.Iterations(), 2*len(X))
	}

	capped := &SVR{Kernel: RBF{Sigma: 0.3}, C: 10, Epsilon: 0.05, maxIter: 1}
	if err := capped.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if capped.Converged() || capped.Iterations() != 1 {
		t.Fatalf("cap 1: converged=%v after %d iterations, want not converged after 1", capped.Converged(), capped.Iterations())
	}

	// A tube wider than every target needs no step at all.
	flat := &SVR{Kernel: RBF{Sigma: 0.3}, C: 10, Epsilon: 2, maxIter: 1}
	if err := flat.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if !flat.Converged() || flat.Iterations() != 0 || flat.SupportVectors() != 0 {
		t.Fatalf("wide tube: converged=%v after %d iterations with %d support vectors, want converged at β = 0",
			flat.Converged(), flat.Iterations(), flat.SupportVectors())
	}
}

// smallGrid keeps the reference search, which refits every point from
// scratch, cheap enough to run across many configurations.
var smallGrid = SVRGrid{Cs: []float64{10, 50, 100}, Epsilons: []float64{0.01, 0.04, 0.1}}

// TestSVRSearchMatchesReference runs the task search against the
// point-by-point CrossValScore search over SVR.Fit: same (kernel, C, ε)
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

// TestSVRSearchCountsCappedFits checks that tasks run on a goroutine
// each, in any interleaving, select what Run selects, and that
// the search counts no capped fit. It then lowers the iteration cap
// until fits do stop at it, and compares the search's count with
// SVR.Converged over the same fold fits.
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
		t.Fatalf("a goroutine per task selected %+v, Run %+v", got, serial)
	}
	if got.Capped != 0 {
		t.Fatalf("%d of %d fits stopped at the iteration cap", got.Capped, got.Fits)
	}

	search.maxIter = 3
	capped, err := search.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, kernel := range kernels {
		for fold := range search.folds {
			trX, trY := foldTraining(search, fold)
			for _, c := range smallGrid.Cs {
				for _, eps := range smallGrid.Epsilons {
					m := &SVR{Kernel: kernel, C: c, Epsilon: eps, maxIter: search.maxIter}
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
	if capped.Capped != want {
		t.Fatalf("search counted %d capped fits, SVR.Converged says %d", capped.Capped, want)
	}
	if capped.Capped == 0 {
		t.Fatal("expected some fits to stop at a cap of 3 iterations")
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

// TestSVRSearchRunMatchesSerialTasks checks Run, which spreads the
// tasks over goroutines, against a serial RunTask loop and Select: the
// same pick, score bits and counts on Table IV-shaped data; the error
// of the lowest failing task when several fail; and a task's panic
// re-raised on the calling goroutine, with the lowest panicking task's
// value.
func TestSVRSearchRunMatchesSerialTasks(t *testing.T) {
	X, y := checkpointSearchData(t)
	kernels := []Kernel{RBF{Sigma: 0.05}, RBF{Sigma: 0.1}, RBF{Sigma: 0.2}, RBF{Sigma: 0.35}, RBF{Sigma: 0.5}}

	t.Run("result", func(t *testing.T) {
		search, err := NewSVRSearch(kernels, smallGrid, X, y, 5, stats.NewRng(3), stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search.Run()
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*TaskResult, search.Tasks())
		for task := range results {
			if results[task], err = search.RunTask(task); err != nil {
				t.Fatal(err)
			}
		}
		want := search.Select(results)
		if got != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Fatalf("Run selected %+v, serial tasks %+v", got, want)
		}
	})

	// Several training rows share the feature value bad; every fold
	// that trains on one of them fails on it.
	bad := X[len(X)/2][0]
	t.Run("lowest error", func(t *testing.T) {
		search, err := NewSVRSearch([]Kernel{kernels[0], zeroAt{RBF{Sigma: 0.2}, bad}}, smallGrid, X, y, 5, stats.NewRng(3), stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		var want error
		failed := map[string]bool{}
		for task := 0; task < search.Tasks(); task++ {
			if _, err := search.RunTask(task); err != nil {
				want = cmp.Or(want, err)
				failed[err.Error()] = true
			}
		}
		if len(failed) < 2 {
			t.Fatalf("%d distinct task errors, want several to order", len(failed))
		}
		if _, err := search.Run(); err == nil || err.Error() != want.Error() {
			t.Fatalf("Run returned %v, want the lowest failing task's %v", err, want)
		}
	})

	t.Run("panic", func(t *testing.T) {
		search, err := NewSVRSearch([]Kernel{kernels[0], panicAt{RBF{Sigma: 0.2}, bad}}, smallGrid, X, y, 5, stats.NewRng(3), stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		want := recovered(func() { search.RunTask(len(search.folds)) })
		if want == nil || want == recovered(func() { search.RunTask(len(search.folds) + 1) }) {
			t.Fatalf("the first two panicking tasks raised %v and the same value, want distinct panics", want)
		}
		if got := recovered(func() { search.Run() }); got != want {
			t.Fatalf("Run panicked with %v, want the lowest panicking task's %v", got, want)
		}
	})
}

// recovered runs f and returns the value it panicked with, if any.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// zeroAt is an RBF kernel with K(x, x) = −1 at one feature value, so
// the bias-augmented Gram matrix of any rows holding it has a zero on
// its diagonal there.
type zeroAt struct {
	RBF
	at float64
}

func (k zeroAt) Eval(a, b []float64) float64 {
	if a[0] == k.at && b[0] == k.at {
		return -1
	}
	return k.RBF.Eval(a, b)
}

// panicAt is an RBF kernel that panics on any pair holding one feature
// value, naming the pair. The first such pair a task meets depends on
// its fold's rows, so tasks panic with different values.
type panicAt struct {
	RBF
	at float64
}

func (k panicAt) Eval(a, b []float64) float64 {
	if a[0] == k.at || b[0] == k.at {
		panic(fmt.Sprintf("panicAt: %v with %v", a, b))
	}
	return k.RBF.Eval(a, b)
}
