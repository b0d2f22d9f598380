package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/trace"
)

// The revmodels experiment answers the question the pluggable
// lifetime-model subsystem exists for: how much do training cost and
// time depend on the *shape* of the revocation process, holding the
// Table V revocation fractions fixed? Every shipped regime — the
// default calibration, the Weibull refit, the pure diurnal hazard, and
// a bootstrap replay of a recorded campaign — measures the same
// scenario grid with full managed sessions.

// revModelsSpec is the comparison grid: the fastest canonical model,
// four transient workers, on cells chosen for revocation contrast —
// europe-west1 K80 (≈67% revoked, front-loaded deaths), us-west1 K80
// (≈23%, back-loaded), and us-west1 V100 (≈73%, short MTTR). The
// workload is sized so sessions span many hours of virtual time;
// regimes that only differ in *when* deaths land need room to differ.
func revModelsSpec() SweepSpec {
	return SweepSpec{
		Model:              model.ResNet15(),
		Sizes:              []int{4},
		GPUs:               []model.GPU{model.K80, model.V100},
		Regions:            []cloud.Region{cloud.EuropeWest1, cloud.USWest1},
		Tiers:              []cloud.Tier{cloud.Transient},
		StepsPerWorker:     500000,
		CheckpointInterval: 1000,
	}
}

// replayLifetimeModel builds the trace-replay entrant: a twelve-day
// paper campaign simulated under the default calibration, exported as
// records, and bootstrapped back as an empirical model — the same path
// a real spot-market CSV takes through cmd/pland's -trace flag. The
// study seed derives from the campaign seed alone, so the experiment
// stays a pure function of -seed.
func replayLifetimeModel(seed int64) (cloud.LifetimeModel, error) {
	k, prov := newCloud(campaign.Derive(seed, 0, "revmodels/replay-study"))
	study, err := trace.RunRevocationStudy(k, prov, trace.PaperCampaign(), 12)
	if err != nil {
		return nil, err
	}
	return study.LifetimeModel("replay")
}

// revModelsEntry is one (regime, scenario) replication.
type revModelsEntry struct {
	RevModel string
	Outcome  ScenarioOutcome
}

func planRevModels(p *plan) *campaign.Plan {
	spec := revModelsSpec()
	type regime struct {
		name string
		lm   cloud.LifetimeModel
	}
	var regimes []regime
	for _, name := range []string{"table5", "weibull", "diurnal"} {
		lm, err := cloud.LookupLifetimeModel(name)
		if err != nil {
			panic(err) // builtins; unreachable
		}
		regimes = append(regimes, regime{name, lm})
	}
	replay, replayErr := replayLifetimeModel(p.seed)
	if replayErr == nil {
		regimes = append(regimes, regime{"replay", replay})
	}
	for _, e := range regimes {
		for _, sc := range spec.Scenarios() {
			sc.RevModel = e.name
			steps := spec.StepsPerWorker * int64(sc.Workers)
			for rep := 0; rep < replications; rep++ {
				p.unit(fmt.Sprintf("revmodels/%s/rep%d", sc.Label(), rep), func(unitSeed int64) (any, error) {
					out, err := runScenarioWith(e.lm, sc, steps, spec.CheckpointInterval, SessionOptions{}, unitSeed)
					if err != nil {
						return nil, err
					}
					return revModelsEntry{RevModel: e.name, Outcome: out}, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		if replayErr != nil {
			return nil, fmt.Errorf("revmodels: building replay model: %w", replayErr)
		}
		return &RevModelsResult{Spec: spec, Entries: collect[revModelsEntry](outs)}, nil
	})
}

// scenario labels the entry's cell without its regime, which has its
// own column.
func (e revModelsEntry) scenario() string {
	sc := e.Outcome.Scenario
	sc.RevModel = ""
	return sc.Label()
}

// cell keys the entry's row: one per (regime, scenario).
func (e revModelsEntry) cell() string { return e.RevModel + "|" + e.scenario() }

// RevModelsResult renders the cross-regime comparison.
type RevModelsResult struct {
	Spec    SweepSpec
	Entries []revModelsEntry
}

// String renders one row per (regime, scenario), averaged over the
// replications, in unit declaration order.
func (r *RevModelsResult) String() string {
	t := newTable(fmt.Sprintf("Revocation-model comparison — %s, %d steps/worker, Ic=%d, mean of %d sessions per cell",
		r.Spec.Model.Name, r.Spec.StepsPerWorker, r.Spec.CheckpointInterval, replications),
		"rev model", "scenario", "time (h)", "cost ($)", "revoked", "replaced", "$/1k steps")
	for _, row := range rowsOf(r.Entries, revModelsEntry.cell) {
		first := row.runs[0]
		cost := row.mean(func(e revModelsEntry) float64 { return e.Outcome.CostUSD })
		steps := float64(r.Spec.StepsPerWorker) * float64(first.Outcome.Scenario.Workers)
		t.addRow(first.RevModel, first.scenario(),
			fmt.Sprintf("%.2f", row.mean(func(e revModelsEntry) float64 { return e.Outcome.TrainingSeconds / 3600 })),
			fmt.Sprintf("%.2f", cost),
			fmt.Sprintf("%.1f", row.mean(func(e revModelsEntry) float64 { return float64(e.Outcome.Revocations) })),
			fmt.Sprintf("%.1f", row.mean(func(e revModelsEntry) float64 { return float64(e.Outcome.Replacements) })),
			fmt.Sprintf("%.3f", cost/(steps/1000)))
	}
	t.addNote("all regimes share each cell's Table V 24 h revocation fraction; they differ in when deaths land")
	t.addNote("table5 = calibrated CDF + Fig. 9 thinning, weibull = two-quantile refit, diurnal = pure hour-of-day hazard, replay = bootstrap of a recorded campaign")
	return t.String()
}
