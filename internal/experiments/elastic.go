package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
)

// The elastic experiment pits static against elastically resized
// mixed-GPU clusters under each revocation regime. All policies run
// the same heterogeneous cluster (2×K80 + 1×P100 + 1×V100, us-west1
// transient) in synchronous dynamic-batching mode, so the only
// difference is membership management: static holds the shape and
// replaces every revocation; "elastic" sheds workers ahead of the
// revocation waves the Fig. 9 diurnal prior predicts and regrows in
// quiet hours; "surge" additionally grows past the requested size. The
// score is the realized bill plus a lateness penalty past an
// analytically derived deadline — a policy that merely shrinks to save
// money loses on lateness, and one that never dodges a wave loses on
// revocation-disrupted rounds. The prior matches the table5 and
// diurnal regimes (both land deaths at Fig. 9 hours) but not weibull
// (hour-free lifetimes), so elasticity should pay off exactly where
// its forecast models the world.

// elasticSlack scales the analytic ideal runtime into the deadline:
// room for startup, checkpoint stalls, and modest disruption, but not
// for giving up half the cluster all day.
const elasticSlack = 1.35

// elasticIdealHours sizes the workload: long enough that the diurnal
// cycle (and its revocation waves) plays out, short enough that every
// policy finishes within the sweep's one-week cap.
const elasticIdealHours = 30

// elasticCheckpointInterval is the session checkpoint cadence (steps).
const elasticCheckpointInterval = 2000

// elasticCluster is the mixed shape every policy runs: the paper's
// Table III heterogeneity taken to all three GPU classes.
func elasticCluster() model.ClusterSpec {
	return model.ClusterSpec{
		{GPU: model.K80, Count: 2},
		{GPU: model.P100, Count: 1},
		{GPU: model.V100, Count: 1},
	}
}

// elasticRegime maps a display label to a lifetime-model registry name
// (empty = the provider default, Table V).
type elasticRegime struct {
	label, revModel string
}

func elasticRegimes() []elasticRegime {
	return []elasticRegime{
		{label: "table5", revModel: ""},
		{label: "weibull", revModel: "weibull"},
		{label: "diurnal", revModel: "diurnal"},
	}
}

// elasticWorkload derives the step target, deadline, and lateness
// penalty from the analytic synchronous round time of the full
// cluster — all closed-form, so every policy faces identical terms.
func elasticWorkload() (steps int64, deadlineHours, penaltyPerHour float64) {
	m := model.ShakeShakeBig()
	cluster := elasticCluster()
	gpus := cluster.GPUs()
	weights := make([]float64, len(gpus))
	penaltyPerHour = model.ParameterServerHourly
	for i, g := range gpus {
		weights[i] = model.StepsPerSecond(g, m)
		penaltyPerHour += model.HourlyPrice(g, true)
	}
	// The session's own share clamps keep the analytic shares aligned
	// with the simulated session's.
	shares := model.BatchShares(model.ReferenceBatch*len(gpus), weights, model.MinBatchShare, model.MaxBatchShare)
	round, err := core.SyncRoundSeconds(gpus, shares, m.GFLOPs)
	if err != nil {
		panic(fmt.Sprintf("experiments: elastic workload: %v", err))
	}
	steps = int64(elasticIdealHours * 3600 / round)
	steps -= steps % 1000 // a round figure for tables and docs
	deadlineHours = float64(steps) * round / 3600 * elasticSlack
	return steps, deadlineHours, penaltyPerHour
}

// elasticEntry is one (regime, policy) replication's outcome.
type elasticEntry struct {
	Regime  string
	Policy  string
	Rep     int
	Outcome ScenarioOutcome
	// Hours is wall time from training start to target.
	Hours         float64
	DeadlineHours float64
	// Score = CostUSD + penalty × hours past the deadline.
	Score float64
}

func planElastic(p *plan) *campaign.Plan {
	steps, deadline, penalty := elasticWorkload()
	for _, regime := range elasticRegimes() {
		for rep := 0; rep < replications; rep++ {
			// One seed per (regime, rep) cell, shared by every policy:
			// identical cloud randomness, so score differences are pure
			// membership policy — the fleet/regret experiments' fairness
			// discipline.
			cellSeed := campaign.Derive(p.seed, uint64(rep), "elastic/"+regime.label)
			for _, policy := range manager.ElasticPolicies() {
				sc := Scenario{
					Model:    model.ShakeShakeBig(),
					Region:   cloud.USWest1,
					Tier:     cloud.Transient,
					RevModel: regime.revModel,
					Cluster:  elasticCluster(),
					Elastic:  policy,
				}
				p.tunit(fmt.Sprintf("elastic/%s/%s/rep%d", regime.label, policy, rep), func(_ int64, rec *obs.Recorder) (any, error) {
					out, err := MeasureScenario(sc, steps, elasticCheckpointInterval, SessionOptions{Trace: rec}, cellSeed)
					if err != nil {
						return nil, err
					}
					e := elasticEntry{
						Regime:        regime.label,
						Policy:        policy,
						Rep:           rep,
						Outcome:       out,
						Hours:         out.TrainingSeconds / 3600,
						DeadlineHours: deadline,
						Score:         out.CostUSD,
					}
					if late := e.Hours - deadline; late > 0 {
						e.Score += penalty * late
					}
					return e, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		return &ElasticResult{Steps: steps, DeadlineHours: deadline, PenaltyPerHour: penalty, Entries: collect[elasticEntry](outs)}, nil
	})
}

// cell keys the entry's row: one per (regime, policy).
func (e elasticEntry) cell() string { return e.Regime + "|" + e.Policy }

func (e elasticEntry) score() float64 { return e.Score }

// ElasticResult renders the static-vs-elastic comparison.
type ElasticResult struct {
	Steps          int64
	DeadlineHours  float64
	PenaltyPerHour float64
	Entries        []elasticEntry
}

// RegimesWhereElasticBeats lists the regimes where the "elastic"
// policy's mean score is strictly below "static"'s — the experiment's
// headline, pinned by a test at the golden seed. The diurnal-prior
// forecast matches table5 and diurnal but not weibull, so the expected
// answer is a strict subset of the regimes, not all of them.
func (r *ElasticResult) RegimesWhereElasticBeats() []string {
	score := map[string]float64{}
	for _, row := range rowsOf(r.Entries, elasticEntry.cell) {
		score[row.runs[0].cell()] = row.mean(elasticEntry.score)
	}
	var wins []string
	for _, regime := range elasticRegimes() {
		e, okE := score[regime.label+"|elastic"]
		s, okS := score[regime.label+"|static"]
		if okE && okS && e < s {
			wins = append(wins, regime.label)
		}
	}
	return wins
}

// String renders one row per (regime, policy), averaged over the
// replications, in declaration order.
func (r *ElasticResult) String() string {
	t := newTable(fmt.Sprintf("Elastic vs. static mixed cluster — %v us-west1 transient, %d sync rounds, deadline %.1f h, mean of %d runs per cell",
		elasticCluster(), r.Steps, r.DeadlineHours, replications),
		"regime", "policy", "hours", "cost ($)", "late", "score ($)", "revoked", "grown", "shrunk")
	for _, row := range rowsOf(r.Entries, elasticEntry.cell) {
		late := 0
		for _, e := range row.runs {
			if e.Hours > e.DeadlineHours {
				late++
			}
		}
		t.addRow(row.runs[0].Regime, row.runs[0].Policy,
			fmt.Sprintf("%.2f", row.mean(func(e elasticEntry) float64 { return e.Hours })),
			fmt.Sprintf("%.2f", row.mean(func(e elasticEntry) float64 { return e.Outcome.CostUSD })),
			fmt.Sprintf("%d/%d", late, len(row.runs)),
			fmt.Sprintf("%.2f", row.mean(elasticEntry.score)),
			fmt.Sprintf("%.1f", row.mean(func(e elasticEntry) float64 { return float64(e.Outcome.Revocations) })),
			fmt.Sprintf("%.1f", row.mean(func(e elasticEntry) float64 { return float64(e.Outcome.Grows) })),
			fmt.Sprintf("%.1f", row.mean(func(e elasticEntry) float64 { return float64(e.Outcome.Shrinks) })))
	}
	if wins := r.RegimesWhereElasticBeats(); len(wins) > 0 {
		t.addNote("elastic beats static (mean score) under: %v", wins)
	} else {
		t.addNote("elastic beat static in no regime at this seed")
	}
	t.addNote("score = realized bill + $%.2f/h past the %.1f h deadline (full-cluster transient + PS rate; deadline = analytic sync round time × %g slack)", r.PenaltyPerHour, r.DeadlineHours, elasticSlack)
	t.addNote("all policies run synchronous dynamic batching on the same mixed cluster with per-cell shared seeds; they differ only in membership management")
	t.addNote("elastic/surge forecast with the Fig. 9 diurnal prior: right about table5 and diurnal revocation waves, wrong about weibull's hour-free lifetimes")
	return t.String()
}
