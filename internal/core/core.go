// Package core is CM-DARE's modeling layer: the transient-aware
// performance models of the paper's Fig. 1. It turns measurement data
// (from the training simulator and cloud campaigns) into
//
//   - per-GPU training-speed models (§III),
//   - checkpoint-time models (§IV),
//   - revocation estimators backed by empirical lifetime CDFs (§V), and
//   - the end-to-end training-time predictor of Eqs. 4–5 (§VI-A), plus
//     the parameter-server bottleneck detector (§VI-B).
package core

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
)

// ModelKind selects the regression family for a performance model,
// mirroring the rows of Tables II and IV.
type ModelKind int

const (
	// KindLinear is univariate/multivariate ordinary least squares.
	KindLinear ModelKind = iota + 1
	// KindSVRPoly is SVR with the two-degree polynomial kernel.
	KindSVRPoly
	// KindSVRRBF is SVR with the RBF kernel, the paper's best
	// performer in both tables.
	KindSVRRBF
)

// String names the kind.
func (k ModelKind) String() string {
	switch k {
	case KindLinear:
		return "linear"
	case KindSVRPoly:
		return "svr-poly"
	case KindSVRRBF:
		return "svr-rbf"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// coreGrid is the coarse hyperparameter grid used when fitting
// performance models (a subset of the paper's full grid keeps model
// refreshes fast, which §IV-C calls out as an operational concern).
// The sub-0.01 ε values matter for the smallest models: an ε of 0.005
// seconds is already 7% of ResNet-9's step time.
var coreGrid = regress.SVRGrid{
	Cs:       []float64{10, 50, 100},
	Epsilons: []float64{0.001, 0.002, 0.005, 0.02},
}

// rbfKernels and polyKernels are the kernel-bandwidth candidates
// swept during fitting, on min-max-normalized log features. The
// log transform spaces the zoo evenly (neighbor distance ≈ 0.05), so
// narrow bandwidths interpolate safely; wide bandwidths produce an
// ill-conditioned Gram matrix and oversmoothed fits.
var rbfKernels = []regress.Kernel{
	regress.RBF{Sigma: 0.03}, regress.RBF{Sigma: 0.05},
	regress.RBF{Sigma: 0.08}, regress.RBF{Sigma: 0.12},
}

var polyKernels = []regress.Kernel{
	regress.Polynomial{Degree: 2, Coef0: 0.5},
	regress.Polynomial{Degree: 2, Coef0: 1},
	regress.Polynomial{Degree: 2, Coef0: 2},
}

// fitRegressor trains a regressor of the given kind on the (already
// normalized) features, cross-validating SVR hyperparameters under
// the given scorer. Deployment models select by the metric that
// matters for their consumer: the speed model by MAPE (Eq. 4 errors
// are relative), the checkpoint model by MAE (Table IV's metric).
func fitRegressor(kind ModelKind, X [][]float64, y []float64, score regress.Scorer) (regress.Regressor, error) {
	switch kind {
	case KindLinear:
		lin := &regress.Linear{}
		if err := lin.Fit(X, y); err != nil {
			return nil, err
		}
		return lin, nil
	case KindSVRPoly, KindSVRRBF:
		kernels := rbfKernels
		if kind == KindSVRPoly {
			kernels = polyKernels
		}
		k := 5
		if len(X) < 2*k {
			k = len(X) / 2
		}
		if k < 2 {
			return nil, fmt.Errorf("core: %d samples too few for SVR cross-validation", len(X))
		}
		search, err := regress.NewSVRSearch(kernels, coreGrid, X, y, k, stats.NewRng(1), score)
		if err != nil {
			return nil, err
		}
		best, err := search.Run()
		if err != nil {
			return nil, err
		}
		m := best.Factory()()
		if err := m.Fit(X, y); err != nil {
			return nil, err
		}
		return m, nil
	default:
		panic(fmt.Sprintf("core: unknown model kind %d", int(kind)))
	}
}

// SpeedObservation is one measured (model, GPU) step time, the unit of
// the §III dataset.
type SpeedObservation struct {
	GPU         model.GPU
	GFLOPs      float64
	StepSeconds float64
}

// SpeedModel predicts per-worker step time from model complexity,
// GPU-specifically — the paper's finding that per-GPU models beat
// GPU-agnostic ones (Table II).
//
// Deployment detail: the feature is log-complexity, min-max
// normalized per GPU. The zoo's complexities are heavily skewed
// (ten ResNets under 3.3 GFLOPs, Shake-Shakes up to 21.3); the log
// transform spreads them so one kernel bandwidth resolves the whole
// range. Table II's experiment code reproduces the paper's raw-Cm
// protocol separately.
type SpeedModel struct {
	perGPU map[model.GPU]*gpuSpeedModel
}

type gpuSpeedModel struct {
	scaler regress.MinMaxScaler
	reg    regress.Regressor
}

// FitSpeedModel trains one regressor per GPU present in the
// observations. Each GPU needs at least four observations; fewer
// would make cross-validation and the SVR fit meaningless.
func FitSpeedModel(obs []SpeedObservation, kind ModelKind) (*SpeedModel, error) {
	byGPU := make(map[model.GPU][]SpeedObservation)
	for _, o := range obs {
		if !o.GPU.Valid() {
			return nil, fmt.Errorf("core: observation with invalid GPU %d", int(o.GPU))
		}
		if o.GFLOPs <= 0 || o.StepSeconds <= 0 {
			return nil, fmt.Errorf("core: non-positive observation %+v", o)
		}
		byGPU[o.GPU] = append(byGPU[o.GPU], o)
	}
	if len(byGPU) == 0 {
		return nil, fmt.Errorf("core: no speed observations")
	}
	m := &SpeedModel{perGPU: make(map[model.GPU]*gpuSpeedModel, len(byGPU))}
	for g, set := range byGPU {
		if len(set) < 4 {
			return nil, fmt.Errorf("core: GPU %v has %d observations, need ≥4", g, len(set))
		}
		X := make([][]float64, len(set))
		y := make([]float64, len(set))
		for i, o := range set {
			X[i] = []float64{math.Log(o.GFLOPs)}
			y[i] = o.StepSeconds
		}
		gm := &gpuSpeedModel{}
		scaled, err := gm.scaler.FitTransform(X)
		if err != nil {
			return nil, fmt.Errorf("core: scaling %v observations: %w", g, err)
		}
		gm.reg, err = fitRegressor(kind, scaled, y, stats.MAPE)
		if err != nil {
			return nil, fmt.Errorf("core: fitting %v speed model: %w", g, err)
		}
		m.perGPU[g] = gm
	}
	return m, nil
}

// StepTime predicts seconds/step for a model of the given complexity
// on the given GPU.
func (m *SpeedModel) StepTime(g model.GPU, gflops float64) (float64, error) {
	gm, ok := m.perGPU[g]
	if !ok {
		return 0, fmt.Errorf("core: no speed model for GPU %v", g)
	}
	if gflops <= 0 {
		return 0, fmt.Errorf("core: non-positive complexity %v", gflops)
	}
	pred := gm.reg.Predict(gm.scaler.Transform([]float64{math.Log(gflops)}))
	if pred <= 0 {
		// Regression can dip non-physical at the extrapolation edge;
		// clamp to a conservative floor rather than return garbage.
		pred = 1e-3
	}
	return pred, nil
}

// WorkerSpeed predicts steps/second for one worker.
func (m *SpeedModel) WorkerSpeed(g model.GPU, gflops float64) (float64, error) {
	t, err := m.StepTime(g, gflops)
	if err != nil {
		return 0, err
	}
	return 1 / t, nil
}

// ClusterSpeed composes worker predictions as sp = Σ spᵢ (§VI-A): the
// paper's observation that cluster speed is the sum of individual
// worker speeds until the parameter-server bottleneck.
func (m *SpeedModel) ClusterSpeed(workers []model.GPU, gflops float64) (float64, error) {
	if len(workers) == 0 {
		return 0, fmt.Errorf("core: empty cluster")
	}
	var sum float64
	for _, g := range workers {
		sp, err := m.WorkerSpeed(g, gflops)
		if err != nil {
			return 0, err
		}
		sum += sp
	}
	return sum, nil
}

// SyncRoundSeconds is the noise-free analytic time of one synchronous
// global step on a mixed cluster with per-worker batch shares: the
// slowest worker — step time scaled by its share of the global batch —
// gates the round (the straggler effect dynamic batching exists to
// tame). The training simulator realizes the same quantity with
// per-step lognormal noise and queued parameter-server service; this
// closed form is the estimator's view of it and the cross-check the
// simulator's tests pin against.
func SyncRoundSeconds(workers []model.GPU, shares []int, gflops float64) (float64, error) {
	if len(workers) == 0 {
		return 0, fmt.Errorf("core: empty cluster")
	}
	if len(shares) != len(workers) {
		return 0, fmt.Errorf("core: %d workers but %d batch shares", len(workers), len(shares))
	}
	var worst float64
	for i, g := range workers {
		t := model.StepTime(g, gflops) * model.BatchTimeFactor(shares[i])
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}

// GPUs lists the GPU types the model covers.
func (m *SpeedModel) GPUs() []model.GPU {
	var out []model.GPU
	for _, g := range model.AllGPUs() {
		if _, ok := m.perGPU[g]; ok {
			out = append(out, g)
		}
	}
	return out
}

// CheckpointObservation is one measured checkpoint write (§IV).
type CheckpointObservation struct {
	DataBytes, MetaBytes, IndexBytes int64
	Seconds                          float64
}

// CheckpointFeatures selects the feature set for the checkpoint model,
// mirroring Table IV's rows.
type CheckpointFeatures int

const (
	// FeatTotalSize uses Sc = Sd + Sm + Si (univariate / SVR rows).
	FeatTotalSize CheckpointFeatures = iota + 1
	// FeatDataMeta uses (Sd, Sm) (multivariate row).
	FeatDataMeta
	// FeatPCA uses two-component PCA over (Sd, Sm, Si).
	FeatPCA
)

// CheckpointModel predicts checkpoint duration from file sizes.
type CheckpointModel struct {
	features CheckpointFeatures
	reg      regress.Regressor
	scaler   regress.MinMaxScaler
}

// FitCheckpointModel trains a checkpoint-time model. PCA features
// imply a linear regressor (Table IV model iii); other feature sets
// accept any kind.
func FitCheckpointModel(obs []CheckpointObservation, features CheckpointFeatures, kind ModelKind) (*CheckpointModel, error) {
	if len(obs) < 4 {
		return nil, fmt.Errorf("core: %d checkpoint observations, need ≥4", len(obs))
	}
	m := &CheckpointModel{features: features}
	X := make([][]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		X[i] = checkpointFeatureVector(features, o.DataBytes, o.MetaBytes, o.IndexBytes)
		y[i] = o.Seconds
	}
	scaled, err := m.scaler.FitTransform(X)
	if err != nil {
		return nil, err
	}
	if features == FeatPCA {
		pca := &regress.PCARegressor{Components: 2}
		if err := pca.Fit(scaled, y); err != nil {
			return nil, fmt.Errorf("core: fitting checkpoint model: %w", err)
		}
		m.reg = pca
		return m, nil
	}
	m.reg, err = fitRegressor(kind, scaled, y, stats.MAE)
	if err != nil {
		return nil, fmt.Errorf("core: fitting checkpoint model: %w", err)
	}
	return m, nil
}

// checkpointFeatureVector assembles the configured features in MB.
func checkpointFeatureVector(features CheckpointFeatures, data, meta, index int64) []float64 {
	const mb = 1e6
	switch features {
	case FeatTotalSize:
		return []float64{float64(data+meta+index) / mb}
	case FeatDataMeta:
		return []float64{float64(data) / mb, float64(meta) / mb}
	case FeatPCA:
		return []float64{float64(data) / mb, float64(meta) / mb, float64(index) / mb}
	default:
		panic(fmt.Sprintf("core: unknown checkpoint features %d", int(features)))
	}
}

// Seconds predicts the checkpoint duration for a zoo model.
func (m *CheckpointModel) Seconds(mm model.Model) float64 {
	x := checkpointFeatureVector(m.features, mm.CkptDataBytes, mm.CkptMetaBytes, mm.CkptIndexBytes)
	pred := m.reg.Predict(m.scaler.Transform(x))
	if pred < 0 {
		pred = 0
	}
	return pred
}

// RevocationEstimator answers Pr(worker revoked within h hours) from
// empirical lifetime CDFs, the Eq. 5 lookup.
type RevocationEstimator struct {
	cdfs map[string]*stats.ECDF
}

// NewRevocationEstimator returns an empty estimator.
func NewRevocationEstimator() *RevocationEstimator {
	return &RevocationEstimator{cdfs: make(map[string]*stats.ECDF)}
}

// placementKey identifies a (region, GPU) cell.
func placementKey(region string, g model.GPU) string {
	return region + "/" + g.String()
}

// SetLifetimes installs the measured lifetimes (hours; censored
// servers recorded at the 24 h cap) for one placement.
func (r *RevocationEstimator) SetLifetimes(region string, g model.GPU, lifetimesHours []float64) error {
	e, err := stats.NewECDF(lifetimesHours)
	if err != nil {
		return fmt.Errorf("core: %s/%v lifetimes: %w", region, g, err)
	}
	r.cdfs[placementKey(region, g)] = e
	return nil
}

// ProbRevokedWithin returns P(lifetime ≤ h) for the placement. Horizons
// at or past the 24 h cap return the probability of revocation before
// the cap (survivors are recorded at the cap itself).
func (r *RevocationEstimator) ProbRevokedWithin(region string, g model.GPU, hours float64) (float64, error) {
	e, ok := r.cdfs[placementKey(region, g)]
	if !ok {
		return 0, fmt.Errorf("core: no lifetime data for %s/%v", region, g)
	}
	if hours >= 24 {
		hours = 23.999
	}
	return e.Eval(hours), nil
}
