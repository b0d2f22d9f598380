package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/train"
)

// EndToEndResult reproduces §VI-A: predicting the end-to-end training
// time of a transient cluster with Eqs. 4–5 and validating against
// full simulated sessions (the paper reports 0.8% error for ResNet-32
// with Nw = 64K and Ic = 4K).
type EndToEndResult struct {
	Estimate       core.Estimate
	ActualSeconds  []float64
	MeanActual     float64
	ErrorPct       float64
	ActualRevoked  int
	PredictedCost  float64
	ActualCostMean float64
}

func planEndToEnd(p *plan) *campaign.Plan {
	const (
		region   = cloud.USCentral1
		nw       = 64000
		ic       = 4000
		sessions = 3
	)
	resnet32 := model.ResNet32()

	// 1. K80 speed measurements for the Eq. 4 speed model (§III).
	dataset := p.declareSpeedDataset([]model.GPU{model.K80})

	// 2. Checkpoint timings for the Eq. 4 checkpoint model (§IV).
	ckptIdx := p.unit("endtoend/ckpt-dataset", func(s int64) (any, error) {
		return collectCheckpointDataset(5, s), nil
	})

	// 3. A twelve-day campaign for the revocation estimator (§V,
	// Fig. 8's empirical CDFs with censored survivors).
	studyIdx := declareRevocationStudy(p, "endtoend/revstudy")

	// 4. Tp: running-average transient startup time (§V-B).
	startupIdx := p.unit("endtoend/startup", func(s int64) (any, error) {
		k, prov := newCloud(s)
		startup, err := trace.RunStartupStudy(k, prov,
			[]model.GPU{model.K80}, []cloud.Tier{cloud.Transient}, []cloud.Region{region}, 20)
		if err != nil {
			return nil, err
		}
		return startup[0].MeanTotal, nil
	})

	// 5. Full managed sessions on the cloud for validation.
	session := Scenario{Model: resnet32, GPU: model.K80, Region: region, Tier: cloud.Transient, Workers: 2}
	valIdx := make([]int, sessions)
	for i := range valIdx {
		valIdx[i] = p.tunit(fmt.Sprintf("endtoend/session-%d", i), func(s int64, rec *obs.Recorder) (any, error) {
			return MeasureScenario(session, nw, ic, SessionOptions{Trace: rec}, s)
		})
	}

	return p.build(func(outs []any) (Result, error) {
		ds, err := dataset(outs)
		if err != nil {
			return nil, err
		}
		speedModel, err := core.FitSpeedModel(ds.observations(), core.KindSVRRBF)
		if err != nil {
			return nil, err
		}
		ckptModel, err := core.FitCheckpointModel(
			outs[ckptIdx].(*checkpointDataset).observations(), core.FeatTotalSize, core.KindSVRRBF)
		if err != nil {
			return nil, err
		}
		study := outs[studyIdx].(*trace.RevocationStudy)
		rev := core.NewRevocationEstimator()
		if err := rev.SetLifetimes(region.String(), model.K80, study.CensoredLifetimes(model.K80, region)); err != nil {
			return nil, err
		}
		tp := outs[startupIdx].(float64)
		ts := train.ReplacementSeconds(resnet32, true) // cold replacement (§V-D)

		predictor := &core.Predictor{
			Speed:              speedModel,
			Checkpoint:         ckptModel,
			Revocation:         rev,
			ProvisionSeconds:   tp,
			ReplacementSeconds: ts,
		}
		plan := core.Plan{
			Model: resnet32,
			Workers: []core.Placement{
				{GPU: model.K80, Region: region.String(), Transient: true},
				{GPU: model.K80, Region: region.String(), Transient: true},
			},
			// The validation sessions run the manager's default single
			// parameter server; the prediction must price the same
			// cluster.
			ParameterServers:   1,
			TargetSteps:        nw,
			CheckpointInterval: ic,
		}
		est, err := predictor.Estimate(plan)
		if err != nil {
			return nil, err
		}

		res := &EndToEndResult{Estimate: est, PredictedCost: est.CostUSD}
		var costSum float64
		for _, vi := range valIdx {
			v := outs[vi].(ScenarioOutcome)
			res.ActualSeconds = append(res.ActualSeconds, v.TrainingSeconds)
			res.ActualRevoked += v.Revocations
			costSum += v.CostUSD
		}
		res.MeanActual = stats.Mean(res.ActualSeconds)
		res.ErrorPct = (est.TotalSeconds - res.MeanActual) / res.MeanActual * 100
		res.ActualCostMean = costSum / sessions
		return res, nil
	})
}

// String renders the prediction against the measured sessions.
func (r *EndToEndResult) String() string {
	t := newTable("§VI-A — end-to-end training time prediction (ResNet-32, Nw=64K, Ic=4K, 2 transient K80)",
		"quantity", "value")
	t.addRow("predicted cluster speed", fmt.Sprintf("%.2f steps/s", r.Estimate.ClusterSpeed))
	t.addRow("predicted compute term", fmt.Sprintf("%.0f s", r.Estimate.ComputeSeconds))
	t.addRow("predicted checkpoint term", fmt.Sprintf("%.0f s", r.Estimate.CheckpointSeconds))
	t.addRow("expected revocations Nr", fmt.Sprintf("%.3f", r.Estimate.ExpectedRevocations))
	t.addRow("predicted revocation term", fmt.Sprintf("%.0f s", r.Estimate.RevocationSeconds))
	t.addRow("predicted total", fmt.Sprintf("%.0f s", r.Estimate.TotalSeconds))
	for i, a := range r.ActualSeconds {
		t.addRow(fmt.Sprintf("measured session %d", i+1), fmt.Sprintf("%.0f s", a))
	}
	t.addRow("measured mean", fmt.Sprintf("%.0f s", r.MeanActual))
	t.addRow("prediction error", fmt.Sprintf("%.2f%% (paper: 0.8%%)", r.ErrorPct))
	t.addRow("revocations absorbed", fmt.Sprintf("%d", r.ActualRevoked))
	t.addRow("predicted cost", fmt.Sprintf("$%.2f", r.PredictedCost))
	t.addRow("measured mean cost", fmt.Sprintf("$%.2f", r.ActualCostMean))
	return t.String()
}
