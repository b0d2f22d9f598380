package planner

import (
	"context"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/core"
)

// EstimateResult is the wire form of an Eq. 4 decomposition.
type EstimateResult struct {
	Scenario            string  `json:"scenario"`
	ClusterStepsPerSec  float64 `json:"cluster_steps_per_sec"`
	ComputeHours        float64 `json:"compute_hours"`
	CheckpointHours     float64 `json:"checkpoint_hours"`
	ExpectedRevocations float64 `json:"expected_revocations"`
	RevocationHours     float64 `json:"revocation_hours"`
	TotalHours          float64 `json:"total_hours"`
	CostUSD             float64 `json:"cost_usd"`
	CostPer1kSteps      float64 `json:"cost_per_1k_steps"`
}

// Estimate answers a scenario query analytically with Eqs. 4–5 — no
// training simulation, so it is the sub-millisecond path (after the
// one-time model fit) for scanning large candidate spaces; Measure
// validates the winners. ctx is accepted for symmetry but the
// evaluation is not cancellable once started.
func (p *Planner) Estimate(ctx context.Context, q ScenarioQuery) (EstimateResult, error) {
	sc, steps, ic, err := q.scenario()
	if err != nil {
		return EstimateResult{}, &BadRequestError{err}
	}
	if sc.ProviderName() != cloud.DefaultProviderName {
		// The Eq. 4/5 fit is calibrated against the default provider's
		// price book, startup times, and hazard; answering for another
		// world would silently use the wrong numbers. Measured queries
		// (/v1/measure, /v1/sweep, /v1/cheapest) support every provider.
		return EstimateResult{}, &BadRequestError{fmt.Errorf(
			"planner: analytic estimates support only the default provider %q; measure provider %q instead",
			cloud.DefaultProviderName, sc.Provider)}
	}
	if sc.RevModelName() != cloud.DefaultLifetimeModelName {
		// The Eq. 5 revocation estimator is fit from lifetime campaigns
		// run under the default calibration; answering for another
		// regime would silently use the wrong hazard. Measured queries
		// (/v1/measure, /v1/sweep, /v1/cheapest) support every model.
		return EstimateResult{}, &BadRequestError{fmt.Errorf(
			"planner: analytic estimates support only the default lifetime model %q; measure rev_model %q instead",
			cloud.DefaultLifetimeModelName, sc.RevModel)}
	}
	if sc.Synchronous() {
		// Eq. 4 sums independent asynchronous worker speeds; mixed
		// clusters and resize policies run the synchronous
		// dynamic-batching kernel, whose rounds wait on the slowest
		// worker. Measured queries support both.
		return EstimateResult{}, &BadRequestError{fmt.Errorf(
			"planner: analytic estimates support only homogeneous static clusters; measure %q instead", sc.Label())}
	}
	pred, err := core.CalibratedPredictor(sc.Model)
	if err != nil {
		return EstimateResult{}, err
	}
	workers := make([]core.Placement, sc.Workers)
	for i := range workers {
		workers[i] = core.Placement{
			GPU:       sc.GPU,
			Region:    sc.Region.String(),
			Transient: sc.Tier == cloud.Transient,
		}
	}
	est, err := pred.Estimate(core.Plan{
		Model:   sc.Model,
		Workers: workers,
		// Measured scenarios run one parameter server (the manager's
		// default); the analytic estimate must price the same cluster.
		ParameterServers:   1,
		TargetSteps:        steps,
		CheckpointInterval: ic,
	})
	if err != nil {
		return EstimateResult{}, err
	}
	return EstimateResult{
		Scenario:            sc.Label(),
		ClusterStepsPerSec:  est.ClusterSpeed,
		ComputeHours:        est.ComputeSeconds / 3600,
		CheckpointHours:     est.CheckpointSeconds / 3600,
		ExpectedRevocations: est.ExpectedRevocations,
		RevocationHours:     est.RevocationSeconds / 3600,
		TotalHours:          est.TotalSeconds / 3600,
		CostUSD:             est.CostUSD,
		CostPer1kSteps:      est.CostUSD / (float64(steps) / 1000),
	}, nil
}
