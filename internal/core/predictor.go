package core

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Placement describes one transient worker: what GPU and where it
// runs, which selects its price and its revocation CDF.
type Placement struct {
	GPU       model.GPU
	Region    string
	Transient bool
}

// Plan is a training plan to estimate: the paper's Eq. 4 inputs.
type Plan struct {
	// Model is the CNN to train.
	Model model.Model
	// Workers places each GPU worker.
	Workers []Placement
	// ParameterServers counts PS shards (pricing only; the speed
	// model assumes the pre-bottleneck regime — pair the estimate
	// with DetectBottleneck to validate that assumption online). Zero
	// means zero: a deliberately PS-less plan bills no parameter
	// server. Callers estimating a managed session should pass the
	// session's real count (manager defaults to one).
	ParameterServers int
	// TargetSteps is Nw; CheckpointInterval is Ic (steps).
	TargetSteps        int64
	CheckpointInterval int64
}

// Estimate is the Eq. 4 decomposition of predicted training time.
type Estimate struct {
	// ClusterSpeed is sp = Σ spᵢ in steps/second.
	ClusterSpeed float64
	// ComputeSeconds is Nw / sp.
	ComputeSeconds float64
	// CheckpointSeconds is ⌈Nw/Ic⌉ × Tc.
	CheckpointSeconds float64
	// ExpectedRevocations is Nr = Σ Pr(Rᵢ) (Eq. 5).
	ExpectedRevocations float64
	// RevocationSeconds is Nr × (Tp + Ts).
	RevocationSeconds float64
	// TotalSeconds is the Eq. 4 sum.
	TotalSeconds float64
	// CostUSD prices the cluster for the predicted duration.
	CostUSD float64
}

// Predictor bundles the fitted performance models with the
// measurement-derived running averages Eq. 4 needs.
type Predictor struct {
	// Speed and Checkpoint are required.
	Speed      *SpeedModel
	Checkpoint *CheckpointModel
	// Revocation may be nil when estimating on-demand clusters.
	Revocation *RevocationEstimator
	// ProvisionSeconds is Tp, the running-average transient startup
	// time (§V-B); ReplacementSeconds is Ts, the running-average
	// worker replacement overhead (§V-D).
	ProvisionSeconds   float64
	ReplacementSeconds float64
}

// Estimate evaluates Eqs. 4 and 5 for the plan. Because the
// revocation probabilities depend on the training duration and vice
// versa, the estimate iterates to a fixed point (three rounds are
// plenty: the revocation term is a small fraction of the total).
func (p *Predictor) Estimate(plan Plan) (Estimate, error) {
	if p.Speed == nil || p.Checkpoint == nil {
		return Estimate{}, fmt.Errorf("core: predictor requires speed and checkpoint models")
	}
	if plan.TargetSteps <= 0 {
		return Estimate{}, fmt.Errorf("core: plan needs positive TargetSteps")
	}
	if len(plan.Workers) == 0 {
		return Estimate{}, fmt.Errorf("core: plan has no workers")
	}
	gpus := make([]model.GPU, len(plan.Workers))
	for i, w := range plan.Workers {
		gpus[i] = w.GPU
	}
	sp, err := p.Speed.ClusterSpeed(gpus, plan.Model.GFLOPs)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{ClusterSpeed: sp}
	est.ComputeSeconds = float64(plan.TargetSteps) / sp

	if plan.CheckpointInterval > 0 {
		nCkpt := math.Ceil(float64(plan.TargetSteps) / float64(plan.CheckpointInterval))
		est.CheckpointSeconds = nCkpt * p.Checkpoint.Seconds(plan.Model)
	}

	base := est.ComputeSeconds + est.CheckpointSeconds
	total := base
	if p.Revocation != nil {
		for iter := 0; iter < 3; iter++ {
			nr := 0.0
			for _, w := range plan.Workers {
				if !w.Transient {
					continue
				}
				pr, err := p.Revocation.ProbRevokedWithin(w.Region, w.GPU, total/3600)
				if err != nil {
					return Estimate{}, err
				}
				nr += pr
			}
			est.ExpectedRevocations = nr
			est.RevocationSeconds = nr * (p.ProvisionSeconds + p.ReplacementSeconds)
			total = base + est.RevocationSeconds
		}
	}
	est.TotalSeconds = total
	est.CostUSD = p.cost(plan, total)
	return est, nil
}

// cost prices the plan's cluster for the given duration.
func (p *Predictor) cost(plan Plan, seconds float64) float64 {
	hours := seconds / 3600
	var hourly float64
	for _, w := range plan.Workers {
		hourly += model.HourlyPrice(w.GPU, w.Transient)
	}
	hourly += float64(plan.ParameterServers) * model.ParameterServerHourly
	return hourly * hours
}
