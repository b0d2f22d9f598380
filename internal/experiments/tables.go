package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
)

// RegressionRow is one row of Table II or Table IV: a model family
// evaluated by k-fold cross-validation MAE and held-out test MAE.
type RegressionRow struct {
	Name     string
	Features string
	KFoldMAE float64
	KFoldStd float64
	TestMAE  float64
	TestMAPE float64
	// C and Epsilon record grid-search outcomes for SVR rows.
	C, Epsilon float64
	// PaperKFold and PaperTest are the published values.
	PaperKFold, PaperTest float64
}

// evaluateRegressor runs the paper's evaluation protocol on one model
// family: 4:1 train/test split, k-fold CV on the training set, final
// fit and test-set scoring.
func evaluateRegressor(factory regress.Factory, X [][]float64, y []float64, k int, seed int64) (kfoldMean, kfoldStd, testMAE, testMAPE float64, err error) {
	rng := stats.NewRng(seed)
	trX, trY, teX, teY, err := regress.TrainTestSplit(X, y, 0.8, rng)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	kfoldMean, kfoldStd, err = regress.CrossValMAE(factory, trX, trY, k, stats.NewRng(seed+1))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	m := factory()
	if err := m.Fit(trX, trY); err != nil {
		return 0, 0, 0, 0, err
	}
	pred := regress.PredictAll(m, teX)
	return kfoldMean, kfoldStd, stats.MAE(pred, teY), stats.MAPE(pred, teY), nil
}

// rbfCandidates and polyCandidates list the kernel candidates searched
// alongside the paper's (C, ε) grid, on min-max-normalized features:
// RBF bandwidths σ and polynomial offsets c.
var rbfCandidates = []regress.Kernel{
	regress.RBF{Sigma: 0.05}, regress.RBF{Sigma: 0.1},
	regress.RBF{Sigma: 0.2}, regress.RBF{Sigma: 0.35}, regress.RBF{Sigma: 0.5},
}

var polyCandidates = []regress.Kernel{
	regress.Polynomial{Degree: 2, Coef0: 0.5},
	regress.Polynomial{Degree: 2, Coef0: 1},
	regress.Polynomial{Degree: 2, Coef0: 2},
}

// svrRow evaluates an SVR row the way §III-B describes: a 4:1
// train/test split, a grid search of the kernel candidates and (C, ε)
// on the training split, then the winner's k-fold and test errors. The
// search spreads its (kernel, fold) tasks over every CPU (see
// regress.SVRSearch.Run).
func svrRow(kernels []regress.Kernel, X [][]float64, y []float64, k int, seed int64) (row RegressionRow, err error) {
	trX, trY, _, _, err := regress.TrainTestSplit(X, y, 0.8, stats.NewRng(seed))
	if err != nil {
		return row, err
	}
	search, err := regress.NewKernelSearch(kernels, regress.PaperSVRGrid(), trX, trY, k, stats.NewRng(seed+2))
	if err != nil {
		return row, err
	}
	best, err := search.Run()
	if err != nil {
		return row, err
	}
	row.C, row.Epsilon = best.C, best.Epsilon
	// The same seed redraws the same split the search ran on.
	row.KFoldMAE, row.KFoldStd, row.TestMAE, row.TestMAPE, err = evaluateRegressor(best.Factory(), X, y, k, seed)
	return row, err
}

// TableIIResult reproduces Table II: eight step-time prediction
// models.
type TableIIResult struct {
	Rows []RegressionRow
}

func planTableII(p *plan) *campaign.Plan {
	gpus := []model.GPU{model.K80, model.P100}
	dataset := p.declareSpeedDataset(gpus)
	return p.build(func(outs []any) (Result, error) {
		ds, err := dataset(outs)
		if err != nil {
			return nil, err
		}
		return reduceTableII(p.seed, gpus, ds)
	})
}

func reduceTableII(seed int64, gpus []model.GPU, ds *speedDataset) (Result, error) {
	res := &TableIIResult{}
	const k = 5

	// GPU-agnostic dataset: all (model, GPU) pairs with raw features
	// (Cnorm; Cm and Cgpu), min-max normalized over the full set.
	var rawCnorm, rawMulti [][]float64
	var yAll []float64
	for _, g := range gpus {
		for _, m := range ds.models {
			rawCnorm = append(rawCnorm, []float64{m.ComputationRatio(g)})
			rawMulti = append(rawMulti, []float64{m.GFLOPs, model.Spec(g).TFLOPS})
			yAll = append(yAll, ds.stepSec[g][m.Name])
		}
	}
	var s1, s2 regress.MinMaxScaler
	cnormX, err := s1.FitTransform(rawCnorm)
	if err != nil {
		return nil, err
	}
	multiX, err := s2.FitTransform(rawMulti)
	if err != nil {
		return nil, err
	}

	linear := func() regress.Regressor { return &regress.Linear{} }

	kf, ks, tm, tp, err := evaluateRegressor(linear, cnormX, yAll, k, seed+10)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Univariate, GPU-agnostic", Features: "Cnorm",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.072, PaperTest: 0.068,
	})
	kf, ks, tm, tp, err = evaluateRegressor(linear, multiX, yAll, k, seed+11)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate, GPU-agnostic", Features: "Cm, Cgpu",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.103, PaperTest: 0.093,
	})

	// Per-GPU rows: feature is Cm normalized within the GPU's zoo.
	paper := map[model.GPU][3][2]float64{
		model.K80:  {{0.065, 0.068}, {0.035, 0.041}, {0.026, 0.031}},
		model.P100: {{0.029, 0.031}, {0.019, 0.020}, {0.012, 0.016}},
	}
	for gi, g := range gpus {
		gflops, stepSec := ds.gpuVectors(g)
		var scaler regress.MinMaxScaler
		X, err := scaler.FitTransform(regress.AsMatrix(gflops))
		if err != nil {
			return nil, err
		}
		rowSeed := seed + 20 + int64(gi)*10
		kf, ks, tm, tp, err := evaluateRegressor(linear, X, stepSec, k, rowSeed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, RegressionRow{
			Name: fmt.Sprintf("Univariate, %v", g), Features: "Cm",
			KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
			PaperKFold: paper[g][0][0], PaperTest: paper[g][0][1],
		})
		polyRow, err := svrRow(polyCandidates, X, stepSec, k, rowSeed+1)
		if err != nil {
			return nil, err
		}
		polyRow.Name = fmt.Sprintf("SVR Polynomial Kernel, %v", g)
		polyRow.Features = "Cm"
		polyRow.PaperKFold, polyRow.PaperTest = paper[g][1][0], paper[g][1][1]
		res.Rows = append(res.Rows, polyRow)

		rbfRow, err := svrRow(rbfCandidates, X, stepSec, k, rowSeed+2)
		if err != nil {
			return nil, err
		}
		rbfRow.Name = fmt.Sprintf("SVR RBF Kernel, %v", g)
		rbfRow.Features = "Cm"
		rbfRow.PaperKFold, rbfRow.PaperTest = paper[g][2][0], paper[g][2][1]
		res.Rows = append(res.Rows, rbfRow)
	}
	return res, nil
}

// String renders the comparison.
func (r *TableIIResult) String() string {
	t := newTable("Table II — step time prediction models (seconds)",
		"Regression Model", "Input", "K-fold MAE", "Test MAE", "Test MAPE", "paper k-fold/test")
	for _, row := range r.Rows {
		t.addRow(row.Name, row.Features,
			fmt.Sprintf("%.3f±%.3f", row.KFoldMAE, row.KFoldStd),
			fmt.Sprintf("%.3f", row.TestMAE),
			fmt.Sprintf("%.1f%%", row.TestMAPE),
			fmt.Sprintf("%.3f/%.3f", row.PaperKFold, row.PaperTest))
	}
	t.addNote("paper: GPU-specific models beat GPU-agnostic ones; SVR-RBF best (K80 RBF test MAPE 9.02%%)")
	return t.String()
}

// TableIVResult reproduces Table IV: four checkpoint-time prediction
// models.
type TableIVResult struct {
	Rows []RegressionRow
}

func planTableIV(p *plan) *campaign.Plan {
	p.unit("ckpt-dataset", func(s int64) (any, error) {
		return collectCheckpointDataset(5, s), nil
	})
	return p.build(func(outs []any) (Result, error) {
		return reduceTableIV(p.seed, outs[0].(*checkpointDataset))
	})
}

func reduceTableIV(seed int64, ds *checkpointDataset) (Result, error) {
	res := &TableIVResult{}
	obs := ds.observations()
	const k = 5

	// Feature matrices in MB, min-max normalized.
	const mb = 1e6
	var rawSc, rawDM, rawAll [][]float64
	var y []float64
	for _, o := range obs {
		rawSc = append(rawSc, []float64{float64(o.DataBytes+o.MetaBytes+o.IndexBytes) / mb})
		rawDM = append(rawDM, []float64{float64(o.DataBytes) / mb, float64(o.MetaBytes) / mb})
		rawAll = append(rawAll, []float64{float64(o.DataBytes) / mb, float64(o.MetaBytes) / mb, float64(o.IndexBytes) / mb})
		y = append(y, o.Seconds)
	}
	var sSc, sDM, sAll regress.MinMaxScaler
	scX, err := sSc.FitTransform(rawSc)
	if err != nil {
		return nil, err
	}
	dmX, err := sDM.FitTransform(rawDM)
	if err != nil {
		return nil, err
	}
	allX, err := sAll.FitTransform(rawAll)
	if err != nil {
		return nil, err
	}

	linear := func() regress.Regressor { return &regress.Linear{} }

	kf, ks, tm, tp, err := evaluateRegressor(linear, scX, y, k, seed+30)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Univariate", Features: "Sc",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.345, PaperTest: 0.356,
	})
	kf, ks, tm, tp, err = evaluateRegressor(linear, dmX, y, k, seed+31)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate", Features: "Sd, Sm",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.291, PaperTest: 0.353,
	})
	pcaFactory := func() regress.Regressor { return &regress.PCARegressor{Components: 2} }
	kf, ks, tm, tp, err = evaluateRegressor(pcaFactory, allX, y, k, seed+32)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate, Two Components PCA", Features: "Sd, Sm, Si",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.286, PaperTest: 0.354,
	})
	svr, err := svrRow(rbfCandidates, scX, y, k, seed+33)
	if err != nil {
		return nil, err
	}
	svr.Name = "SVR RBF kernel"
	svr.Features = "Sc"
	svr.PaperKFold, svr.PaperTest = 0.198, 0.245
	res.Rows = append(res.Rows, svr)
	return res, nil
}

// String renders the comparison.
func (r *TableIVResult) String() string {
	t := newTable("Table IV — checkpoint time prediction models (seconds)",
		"Regression Model", "Input", "K-fold MAE", "Test MAE", "Test MAPE", "paper k-fold/test")
	for _, row := range r.Rows {
		t.addRow(row.Name, row.Features,
			fmt.Sprintf("%.3f±%.3f", row.KFoldMAE, row.KFoldStd),
			fmt.Sprintf("%.3f", row.TestMAE),
			fmt.Sprintf("%.1f%%", row.TestMAPE),
			fmt.Sprintf("%.3f/%.3f", row.PaperKFold, row.PaperTest))
	}
	t.addNote("paper: SVR-RBF wins with 5.38%% test MAPE; others ≈1.45–1.74× higher MAE")
	return t.String()
}
