package core

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
	"repro/internal/train"
)

// zooSpeedObservations builds a noiseless training set from the
// calibrated curves, one observation per (zoo model, GPU).
func zooSpeedObservations(gpus ...model.GPU) []SpeedObservation {
	var obs []SpeedObservation
	for _, m := range model.Zoo() {
		for _, g := range gpus {
			obs = append(obs, SpeedObservation{
				GPU:         g,
				GFLOPs:      m.GFLOPs,
				StepSeconds: model.StepTimeModel(g, m),
			})
		}
	}
	return obs
}

func TestFitSpeedModelPredictsAnchors(t *testing.T) {
	m, err := FitSpeedModel(zooSpeedObservations(model.K80, model.P100), KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range model.CanonicalModels() {
		want := model.StepTimeModel(model.K80, cm)
		got, err := m.StepTime(model.K80, cm.GFLOPs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("K80 %s predicted %.4f, calibrated %.4f", cm.Name, got, want)
		}
	}
	if _, err := m.StepTime(model.V100, 1.0); err == nil {
		t.Error("prediction for unfitted GPU should error")
	}
	gpus := m.GPUs()
	if len(gpus) != 2 {
		t.Errorf("GPUs = %v, want two", gpus)
	}
}

func TestSpeedModelKindsOrdering(t *testing.T) {
	// GPU-specific SVR-RBF should achieve lower training error than
	// plain linear on the curved step-time data — the Table II story.
	// The linear baseline fits the same log-GFLOPs feature.
	obs := zooSpeedObservations(model.K80)
	m, err := FitSpeedModel(obs, KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, len(obs))
	y := make([]float64, len(obs))
	for i, o := range obs {
		X[i] = []float64{math.Log(o.GFLOPs)}
		y[i] = o.StepSeconds
	}
	var lin regress.Linear
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var rbfErrs, linErrs []float64
	for i, o := range obs {
		pred, err := m.StepTime(model.K80, o.GFLOPs)
		if err != nil {
			t.Fatal(err)
		}
		rbfErrs = append(rbfErrs, math.Abs(pred-o.StepSeconds))
		linErrs = append(linErrs, math.Abs(lin.Predict(X[i])-o.StepSeconds))
	}
	linear, rbf := stats.Mean(linErrs), stats.Mean(rbfErrs)
	if rbf >= linear {
		t.Errorf("SVR-RBF MAE %.4f should beat linear %.4f on curved data", rbf, linear)
	}
}

func TestClusterSpeedIsSum(t *testing.T) {
	m, err := FitSpeedModel(zooSpeedObservations(model.K80, model.P100, model.V100), KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	r32 := model.ResNet32()
	var wantSum float64
	cluster := []model.GPU{model.K80, model.K80, model.P100, model.V100}
	for _, g := range cluster {
		sp, err := m.WorkerSpeed(g, r32.GFLOPs)
		if err != nil {
			t.Fatal(err)
		}
		wantSum += sp
	}
	got, err := m.ClusterSpeed(cluster, r32.GFLOPs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-wantSum) > 1e-9 {
		t.Fatalf("ClusterSpeed = %v, want Σ = %v", got, wantSum)
	}
	if _, err := m.ClusterSpeed(nil, 1); err == nil {
		t.Fatal("empty cluster should error")
	}
}

func TestFitSpeedModelValidation(t *testing.T) {
	if _, err := FitSpeedModel(nil, KindSVRRBF); err == nil {
		t.Error("no observations should error")
	}
	bad := []SpeedObservation{{GPU: model.K80, GFLOPs: -1, StepSeconds: 1}}
	if _, err := FitSpeedModel(bad, KindSVRRBF); err == nil {
		t.Error("negative GFLOPs should error")
	}
	few := []SpeedObservation{
		{GPU: model.K80, GFLOPs: 1, StepSeconds: 0.1},
		{GPU: model.K80, GFLOPs: 2, StepSeconds: 0.2},
	}
	if _, err := FitSpeedModel(few, KindSVRRBF); err == nil {
		t.Error("too few observations should error")
	}
	if _, err := FitSpeedModel(zooSpeedObservations(model.K80), KindSVRRBF+1); err == nil {
		t.Error("a kind other than KindSVRRBF should error")
	}
}

func zooCheckpointObservations(noise float64, seed int64) []CheckpointObservation {
	rng := stats.NewRng(seed)
	var obs []CheckpointObservation
	for _, m := range model.Zoo() {
		base := 0.81 + float64(m.CheckpointBytes())/28e6
		obs = append(obs, CheckpointObservation{
			DataBytes:  m.CkptDataBytes,
			MetaBytes:  m.CkptMetaBytes,
			IndexBytes: m.CkptIndexBytes,
			Seconds:    rng.LogNormal(base, noise),
		})
	}
	return obs
}

func TestCheckpointModelFeatureSets(t *testing.T) {
	obs := zooCheckpointObservations(0.02, 3)
	r32 := model.ResNet32()
	want := 0.81 + float64(r32.CheckpointBytes())/28e6
	m, err := FitCheckpointModel(obs, FeatTotalSize, KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Seconds(r32); math.Abs(got-want)/want > 0.12 {
		t.Errorf("ResNet-32 checkpoint predicted %.2f s, want ≈%.2f", got, want)
	}
}

func TestCheckpointModelValidation(t *testing.T) {
	if _, err := FitCheckpointModel(nil, FeatTotalSize, KindSVRRBF); err == nil {
		t.Error("no observations should error")
	}
	obs := zooCheckpointObservations(0.02, 3)
	if _, err := FitCheckpointModel(obs, FeatTotalSize+1, KindSVRRBF); err == nil {
		t.Error("a feature set other than FeatTotalSize should error")
	}
	if _, err := FitCheckpointModel(obs, FeatTotalSize, KindSVRRBF+1); err == nil {
		t.Error("a kind other than KindSVRRBF should error")
	}
}

func TestRevocationEstimator(t *testing.T) {
	r := NewRevocationEstimator()
	// Half the servers died at 2 h, the rest survived to the cap.
	lifetimes := []float64{2, 2, 2, 24, 24, 24}
	if err := r.SetLifetimes("us-west1", model.K80, lifetimes); err != nil {
		t.Fatal(err)
	}
	p, err := r.ProbRevokedWithin("us-west1", model.K80, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(revoked ≤ 3h) = %v, want 0.5", p)
	}
	// Beyond the cap: probability of revocation before the cap.
	p, err = r.ProbRevokedWithin("us-west1", model.K80, 48)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(revoked ≤ 48h) = %v, want 0.5 (survivors at cap)", p)
	}
	if _, err := r.ProbRevokedWithin("mars", model.K80, 1); err == nil {
		t.Fatal("unknown placement should error")
	}
	if err := r.SetLifetimes("x", model.K80, nil); err == nil {
		t.Fatal("empty lifetimes should error")
	}
}

func newTestPredictor(t *testing.T) *Predictor {
	t.Helper()
	sm, err := FitSpeedModel(zooSpeedObservations(model.K80, model.P100, model.V100), KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := FitCheckpointModel(zooCheckpointObservations(0.01, 5), FeatTotalSize, KindSVRRBF)
	if err != nil {
		t.Fatal(err)
	}
	return &Predictor{
		Speed:              sm,
		Checkpoint:         cm,
		ProvisionSeconds:   70,
		ReplacementSeconds: 76,
	}
}

func TestEstimateDecomposition(t *testing.T) {
	p := newTestPredictor(t)
	rev := NewRevocationEstimator()
	// 40% of servers die uniformly within 10 h.
	var lifetimes []float64
	for i := 0; i < 40; i++ {
		lifetimes = append(lifetimes, float64(i%10)+0.5)
	}
	for i := 0; i < 60; i++ {
		lifetimes = append(lifetimes, 24)
	}
	if err := rev.SetLifetimes("us-central1", model.K80, lifetimes); err != nil {
		t.Fatal(err)
	}
	p.Revocation = rev

	plan := Plan{
		Model: model.ResNet32(),
		Workers: []Placement{
			{GPU: model.K80, Region: "us-central1", Transient: true},
			{GPU: model.K80, Region: "us-central1", Transient: true},
		},
		ParameterServers:   1,
		TargetSteps:        64000,
		CheckpointInterval: 4000,
	}
	est, err := p.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Speed ≈ 2 × 4.56; compute ≈ 64000 / 9.12 ≈ 7018 s.
	if math.Abs(est.ClusterSpeed-9.12)/9.12 > 0.1 {
		t.Errorf("cluster speed = %.2f, want ≈9.12", est.ClusterSpeed)
	}
	if est.CheckpointSeconds < 50 || est.CheckpointSeconds > 70 {
		t.Errorf("checkpoint term = %.1f s, want ≈16 × 3.84 ≈ 61", est.CheckpointSeconds)
	}
	if est.ExpectedRevocations <= 0 || est.ExpectedRevocations > 2 {
		t.Errorf("expected revocations = %.2f, want in (0, 2]", est.ExpectedRevocations)
	}
	wantTotal := est.ComputeSeconds + est.CheckpointSeconds + est.RevocationSeconds
	if math.Abs(est.TotalSeconds-wantTotal) > 1e-9 {
		t.Errorf("total %.1f ≠ sum of terms %.1f", est.TotalSeconds, wantTotal)
	}
	if est.CostUSD <= 0 {
		t.Error("cost should be positive")
	}
	// Transient K80 pair + 1 PS at ≈2 h: sanity bound the price.
	hours := est.TotalSeconds / 3600
	wantCost := (2*model.HourlyPrice(model.K80, true) + model.ParameterServerHourly) * hours
	if math.Abs(est.CostUSD-wantCost) > 1e-9 {
		t.Errorf("cost = %v, want %v", est.CostUSD, wantCost)
	}
}

func TestEstimateWithoutRevocationModel(t *testing.T) {
	p := newTestPredictor(t)
	plan := Plan{
		Model:       model.ResNet15(),
		Workers:     []Placement{{GPU: model.V100, Region: "us-central1", Transient: false}},
		TargetSteps: 10000,
	}
	est, err := p.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if est.ExpectedRevocations != 0 || est.RevocationSeconds != 0 {
		t.Error("on-demand plan should have no revocation term")
	}
	if est.CheckpointSeconds != 0 {
		t.Error("no checkpoint interval ⇒ no checkpoint term")
	}
}

func TestEstimateValidation(t *testing.T) {
	p := newTestPredictor(t)
	if _, err := p.Estimate(Plan{Model: model.ResNet15(), TargetSteps: 100}); err == nil {
		t.Error("no workers should error")
	}
	if _, err := p.Estimate(Plan{Model: model.ResNet15(), Workers: []Placement{{GPU: model.K80}}}); err == nil {
		t.Error("no target steps should error")
	}
	if _, err := (&Predictor{}).Estimate(Plan{}); err == nil {
		t.Error("missing models should error")
	}
}

func TestDetector(t *testing.T) {
	mk := func(speeds []float64) []train.SpeedSample {
		var out []train.SpeedSample
		for i, s := range speeds {
			out = append(out, train.SpeedSample{Time: float64(i) * 10, Speed: s, Step: int64(i+1) * 100})
		}
		return out
	}
	// Measured matches prediction: not bottlenecked.
	v, err := DetectBottleneck(100, mk([]float64{60, 80, 99, 100, 101, 99}))
	if err != nil {
		t.Fatal(err)
	}
	if v.Bottlenecked {
		t.Errorf("false positive: %+v", v)
	}
	// Warm-up samples (first 30 s) are excluded: samples at t=0,10,20.
	if v.Samples != 3 {
		t.Errorf("post-warm-up samples = %d, want 3", v.Samples)
	}
	// Measured 20% low: bottlenecked.
	v, err = DetectBottleneck(100, mk([]float64{50, 70, 80, 80, 80, 80}))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bottlenecked {
		t.Errorf("missed bottleneck: %+v", v)
	}
	if math.Abs(v.Deviation-0.2) > 1e-9 {
		t.Errorf("deviation = %v, want 0.2", v.Deviation)
	}
	// Deviation just under threshold: not flagged.
	v, err = DetectBottleneck(100, mk([]float64{90, 90, 90, 94, 94, 94}))
	if err != nil {
		t.Fatal(err)
	}
	if v.Bottlenecked {
		t.Errorf("deviation %.3f under threshold should not flag", v.Deviation)
	}
}

func TestDetectorErrors(t *testing.T) {
	if _, err := DetectBottleneck(0, nil); err == nil {
		t.Error("non-positive prediction should error")
	}
	if _, err := DetectBottleneck(10, nil); err == nil {
		t.Error("empty series should error")
	}
	short := []train.SpeedSample{{Time: 0, Speed: 5}}
	if _, err := DetectBottleneck(10, short); err == nil {
		t.Error("all-warm-up series should error")
	}
}

// TestCostBillsExactParameterServerCount pins the PS-billing contract
// on both sides: a plan's cost scales with its declared parameter
// server count, and zero means zero — a deliberately PS-less plan
// bills only its workers, so two distinct plans no longer price
// identically. (Callers estimating a managed session pass the
// session's real count; the manager's own default of one lives in the
// manager, not here.)
func TestCostBillsExactParameterServerCount(t *testing.T) {
	p := &Predictor{}
	plan := Plan{
		Model:       model.ResNet32(),
		Workers:     []Placement{{GPU: model.K80, Region: "us-central1", Transient: true}},
		TargetSteps: 1000,
	}
	const seconds = 3600.0
	workersOnly := model.HourlyPrice(model.K80, true)
	if got := p.cost(plan, seconds); math.Abs(got-workersOnly) > 1e-12 {
		t.Fatalf("PS-less plan billed $%.4f/h, want workers-only $%.4f/h", got, workersOnly)
	}
	plan.ParameterServers = 1
	withOne := p.cost(plan, seconds)
	if math.Abs(withOne-(workersOnly+model.ParameterServerHourly)) > 1e-12 {
		t.Fatalf("1-PS plan billed $%.4f/h, want $%.4f/h", withOne, workersOnly+model.ParameterServerHourly)
	}
	plan.ParameterServers = 3
	if got := p.cost(plan, seconds); math.Abs(got-(workersOnly+3*model.ParameterServerHourly)) > 1e-12 {
		t.Fatalf("3-PS plan billed $%.4f/h, want $%.4f/h", got, workersOnly+3*model.ParameterServerHourly)
	}
}
