package regress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestLinearRecoversExactLine(t *testing.T) {
	// y = 3x + 2, no noise: OLS must recover coefficients exactly.
	X := AsMatrix([]float64{0, 1, 2, 3, 4})
	y := []float64{2, 5, 8, 11, 14}
	var l Linear
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Coef[0]-3) > 1e-9 || math.Abs(l.Intercept-2) > 1e-9 {
		t.Fatalf("fit = %vx + %v, want 3x + 2", l.Coef[0], l.Intercept)
	}
	if got := l.Predict([]float64{10}); math.Abs(got-32) > 1e-9 {
		t.Fatalf("Predict(10) = %v, want 32", got)
	}
}

func TestLinearMultivariate(t *testing.T) {
	// y = 2a - b + 0.5.
	X := [][]float64{{1, 1}, {2, 1}, {1, 3}, {4, 2}, {3, 5}, {0, 2}}
	y := make([]float64, len(X))
	for i, r := range X {
		y[i] = 2*r[0] - r[1] + 0.5
	}
	var l Linear
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Coef[0]-2) > 1e-9 || math.Abs(l.Coef[1]+1) > 1e-9 || math.Abs(l.Intercept-0.5) > 1e-9 {
		t.Fatalf("fit = %v + %v, want [2 -1] + 0.5", l.Coef, l.Intercept)
	}
}

func TestLinearRejectsDegenerateInputs(t *testing.T) {
	var l Linear
	if err := l.Fit(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if err := l.Fit([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := l.Fit([][]float64{{1, 2}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("underdetermined system should error")
	}
	// Constant feature duplicates the intercept → singular.
	if err := l.Fit([][]float64{{1}, {1}, {1}}, []float64{1, 2, 3}); err == nil {
		t.Error("singular system should error")
	}
}

func TestLinearPredictPanicsBeforeFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Predict before Fit should panic")
		}
	}()
	var l Linear
	l.Predict([]float64{1})
}

// Property: OLS residuals are orthogonal to each feature column and
// sum to zero (normal equations).
func TestQuickOLSNormalEquations(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRng(seed)
		n := 12 + rng.Intn(20)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.Uniform(-5, 5), rng.Uniform(-5, 5)}
			y[i] = 1.5*X[i][0] - 2*X[i][1] + rng.Normal(0, 1)
		}
		var l Linear
		if err := l.Fit(X, y); err != nil {
			return true // degenerate draw
		}
		var sumRes, dot0, dot1 float64
		for i := range X {
			r := y[i] - l.Predict(X[i])
			sumRes += r
			dot0 += r * X[i][0]
			dot1 += r * X[i][1]
		}
		tol := 1e-6 * float64(n)
		return math.Abs(sumRes) < tol && math.Abs(dot0) < tol && math.Abs(dot1) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKernels(t *testing.T) {
	a, b := []float64{1, 0}, []float64{0, 1}
	rbf := RBF{Sigma: 1}
	if got := rbf.Eval(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("RBF(a,a) = %v, want 1", got)
	}
	want := math.Exp(-1) // ‖a-b‖²=2, 2σ²=2
	if got := rbf.Eval(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RBF(a,b) = %v, want %v", got, want)
	}
	poly := Polynomial{Degree: 2, Coef0: 1}
	if got := poly.Eval(a, b); math.Abs(got-1) > 1e-12 { // (0+1)²
		t.Fatalf("poly(a,b) = %v, want 1", got)
	}
	if got := poly.Eval(a, a); math.Abs(got-4) > 1e-12 { // (1+1)²
		t.Fatalf("poly(a,a) = %v, want 4", got)
	}
}

func TestSVRFitsNonlinearFunction(t *testing.T) {
	// SVR with an RBF kernel should fit a smooth nonlinear curve far
	// better than a straight line — the paper's Table II finding.
	rng := stats.NewRng(1)
	var X [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		x := rng.Uniform(0, 1)
		X = append(X, []float64{x})
		y = append(y, math.Sin(4*x)+0.5*x)
	}
	svr := &SVR{Kernel: RBF{Sigma: 0.2}, C: 50, Epsilon: 0.01}
	if err := svr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var lin Linear
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	svrMAE := stats.MAE(PredictAll(svr, X), y)
	linMAE := stats.MAE(PredictAll(&lin, X), y)
	if svrMAE > 0.05 {
		t.Errorf("SVR-RBF training MAE = %.4f, want < 0.05", svrMAE)
	}
	if svrMAE > linMAE/3 {
		t.Errorf("SVR-RBF MAE %.4f should be well below linear MAE %.4f", svrMAE, linMAE)
	}
	if svr.SupportVectors() == 0 || svr.SupportVectors() > len(X) {
		t.Errorf("support vectors = %d, want in (0, %d]", svr.SupportVectors(), len(X))
	}
}

func TestSVREpsilonInsensitivity(t *testing.T) {
	// With a huge ε every point sits inside the tube and the model is
	// identically zero (no support vectors).
	X := AsMatrix([]float64{0, 0.5, 1})
	y := []float64{0.1, 0.2, 0.15}
	svr := &SVR{Kernel: RBF{Sigma: 1}, C: 10, Epsilon: 10}
	if err := svr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if svr.SupportVectors() != 0 {
		t.Fatalf("support vectors = %d, want 0 inside a wide tube", svr.SupportVectors())
	}
	if got := svr.Predict([]float64{0.3}); got != 0 {
		t.Fatalf("Predict = %v, want 0", got)
	}
}

func TestSVRValidation(t *testing.T) {
	if err := (&SVR{C: 1, Epsilon: 0.1}).Fit(AsMatrix([]float64{1}), []float64{1}); err == nil {
		t.Error("missing kernel should error")
	}
	if err := (&SVR{Kernel: RBF{Sigma: 1}, C: 0}).Fit(AsMatrix([]float64{1}), []float64{1}); err == nil {
		t.Error("non-positive C should error")
	}
	if err := (&SVR{Kernel: RBF{Sigma: 1}, C: 1, Epsilon: -1}).Fit(AsMatrix([]float64{1}), []float64{1}); err == nil {
		t.Error("negative epsilon should error")
	}
}

// Property: SVR training residuals never exceed ε + slack justified by
// C: with large C and ε=0.05, training residuals stay within a small
// multiple of ε for a smooth target.
func TestQuickSVRResidualBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRng(seed)
		var X [][]float64
		var y []float64
		for i := 0; i < 25; i++ {
			x := rng.Uniform(0, 1)
			X = append(X, []float64{x})
			y = append(y, 0.5*x+0.2) // linear, easily fit
		}
		svr := &SVR{Kernel: RBF{Sigma: 0.5}, C: 100, Epsilon: 0.05}
		if err := svr.Fit(X, y); err != nil {
			return false
		}
		for i := range X {
			if math.Abs(svr.Predict(X[i])-y[i]) > 0.06 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxScaler(t *testing.T) {
	X := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	var m MinMaxScaler
	scaled, err := m.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(scaled[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("scaled = %v, want %v", scaled, want)
			}
		}
	}
	// Out-of-range extrapolates.
	if got := m.Transform([]float64{20, 10})[0]; math.Abs(got-2) > 1e-12 {
		t.Fatalf("extrapolated = %v, want 2", got)
	}
	// Constant feature maps to zero.
	var m2 MinMaxScaler
	out, err := m2.FitTransform([][]float64{{7}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 0 || out[1][0] != 0 {
		t.Fatalf("constant feature scaled to %v, want 0", out)
	}
}

// Property: min-max scaling of the fitted data always lands in [0,1].
func TestQuickMinMaxBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var m MinMaxScaler
		scaled, err := m.FitTransform(AsMatrix(xs))
		if err != nil {
			return true
		}
		for _, row := range scaled {
			if row[0] < 0 || row[0] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Data varies along (1,1)/√2 with tiny noise orthogonally; the
	// first component must align with it.
	rng := stats.NewRng(7)
	var X [][]float64
	for i := 0; i < 200; i++ {
		tv := rng.Normal(0, 3)
		n := rng.Normal(0, 0.05)
		X = append(X, []float64{tv + n, tv - n})
	}
	p := PCA{Components: 1}
	if err := p.Fit(X); err != nil {
		t.Fatal(err)
	}
	v := p.basis[0]
	// Component is defined up to sign.
	align := math.Abs(v[0]*1/math.Sqrt2 + v[1]*1/math.Sqrt2)
	if align < 0.999 {
		t.Fatalf("first component %v misaligned with (1,1)/√2 (|cos| = %v)", v, align)
	}
	ev := p.ExplainedVariance()
	if ev[0] < 8 { // var of N(0,3) along the direction ≈ 9×2... ≥ 8 is safe
		t.Fatalf("explained variance = %v, want large", ev[0])
	}
}

func TestPCARegressorMatchesLinearOnFullRank(t *testing.T) {
	// Keeping all components, PCA regression equals plain OLS.
	rng := stats.NewRng(11)
	var X [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		a, b := rng.Uniform(0, 10), rng.Uniform(0, 5)
		X = append(X, []float64{a, b})
		y = append(y, 2*a-b+1)
	}
	p := &PCARegressor{Components: 2}
	if err := p.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var l Linear
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{3, 4}
	if math.Abs(p.Predict(probe)-l.Predict(probe)) > 1e-6 {
		t.Fatalf("PCA(2 of 2) predict %v, OLS %v — should match", p.Predict(probe), l.Predict(probe))
	}
}

func TestPCAValidation(t *testing.T) {
	p := PCA{Components: 3}
	if err := p.Fit([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("components > dims should error")
	}
	p = PCA{Components: 1}
	if err := p.Fit([][]float64{{1, 2}}); err == nil {
		t.Error("single sample should error")
	}
}

func TestKFoldPartitions(t *testing.T) {
	rng := stats.NewRng(3)
	folds, err := KFold(10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, fold := range folds {
		for _, idx := range fold {
			if seen[idx] {
				t.Fatalf("index %d appears in two folds", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("folds cover %d indices, want 10", len(seen))
	}
	if _, err := KFold(3, 5, rng); err == nil {
		t.Fatal("k > n should error")
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := stats.NewRng(5)
	X := AsMatrix([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	trX, trY, teX, teY, err := TrainTestSplit(X, y, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trX) != 8 || len(teX) != 2 || len(trY) != 8 || len(teY) != 2 {
		t.Fatalf("split sizes = %d/%d", len(trX), len(teX))
	}
	// Pairing preserved.
	for i := range trX {
		if trX[i][0] != trY[i] {
			t.Fatal("train pairing broken")
		}
	}
	if _, _, _, _, err := TrainTestSplit(X, y, 1.5, rng); err == nil {
		t.Fatal("bad fraction should error")
	}
}

func TestCrossValMAEPerfectModel(t *testing.T) {
	// A linear target cross-validated with a linear model: MAE ≈ 0.
	X := AsMatrix([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	y := make([]float64, 12)
	for i := range y {
		y[i] = 4*X[i][0] - 7
	}
	mean, std, err := CrossValMAE(func() Regressor { return &Linear{} }, X, y, 4, stats.NewRng(2))
	if err != nil {
		t.Fatal(err)
	}
	if mean > 1e-9 || std > 1e-9 {
		t.Fatalf("CV MAE = %v ± %v, want ≈0", mean, std)
	}
}

func TestGridSearchSVRFindsLowErrorModel(t *testing.T) {
	rng := stats.NewRng(13)
	var X [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		x := rng.Uniform(0, 1)
		X = append(X, []float64{x})
		y = append(y, x*x+0.1)
	}
	factory, c, eps, mae, err := GridSearchSVR(RBF{Sigma: 0.3}, PaperSVRGrid(), X, y, 5, stats.NewRng(17))
	if err != nil {
		t.Fatal(err)
	}
	if c < 10 || c > 100 || eps < 0.01 || eps > 0.1 {
		t.Fatalf("chosen (C, ε) = (%v, %v) outside the paper's grid", c, eps)
	}
	if mae > 0.06 {
		t.Fatalf("grid-search CV MAE = %v, want small", mae)
	}
	m := factory()
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.5}); math.Abs(got-0.35) > 0.1 {
		t.Fatalf("best model Predict(0.5) = %v, want ≈0.35", got)
	}
}

func TestAsMatrix(t *testing.T) {
	m := AsMatrix([]float64{5, 6})
	if m[0][0] != 5 || m[1][0] != 6 {
		t.Fatalf("AsMatrix = %v", m)
	}
}
