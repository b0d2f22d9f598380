package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SweepSpec declares a scenario grid for a measurement campaign: every
// combination of cluster size, GPU type, region, and pricing tier is
// one managed training session on the simulated cloud. This is the
// configuration space the paper's introduction motivates (which
// servers, how many, transient or on-demand?) explored by measurement
// rather than by the Eq. 4/5 estimate.
type SweepSpec struct {
	Model   model.Model
	Sizes   []int
	GPUs    []model.GPU
	Regions []cloud.Region
	Tiers   []cloud.Tier
	// RevModels lists the revocation/lifetime regimes to sweep (names
	// from cloud.LifetimeModelNames); empty means the default Table V
	// calibration only.
	RevModels []string
	// Providers lists the provider worlds to sweep (names from
	// cloud.ProviderNames); empty means the default (gce) only.
	Providers []string
	// StepsPerWorker scales the training target with cluster size so
	// every scenario measures a comparable per-worker workload.
	StepsPerWorker     int64
	CheckpointInterval int64
}

// Scenario is one cell of the sweep grid.
type Scenario struct {
	Model  model.Model
	GPU    model.GPU
	Region cloud.Region
	Tier   cloud.Tier
	// RevModel names the revocation/lifetime regime the simulated
	// cloud applies to transient servers; empty means the provider's
	// default regime (Table V for the default provider).
	RevModel string
	// Provider names the provider world (catalog, price book, startup,
	// climate) the scenario runs in; empty means the default (gce).
	Provider string
	Workers  int
	// Cluster optionally specifies a mixed-GPU worker composition; nil
	// means Workers × GPU (the homogeneous default every pre-existing
	// scenario phrases). A non-nil Cluster overrides GPU and Workers.
	Cluster model.ClusterSpec
	// Elastic names the manager resize policy ("static", "elastic",
	// "surge"); empty means static.
	Elastic string
}

// ClusterSpec resolves the scenario's worker composition with the
// default applied — the canonical form Key embeds: an explicit spec
// canonicalized, or Workers × GPU.
func (s Scenario) ClusterSpec() model.ClusterSpec {
	if len(s.Cluster) > 0 {
		return s.Cluster.Canonical()
	}
	return model.HomogeneousCluster(s.GPU, s.Workers)
}

// ElasticName resolves the scenario's elastic policy with the default
// applied — the canonical form Key embeds.
func (s Scenario) ElasticName() string {
	if s.Elastic == "" {
		return manager.DefaultElasticPolicyName
	}
	return s.Elastic
}

// Synchronous reports whether the scenario's session trains in
// synchronous dynamic-batching rounds, as manager.NewSession decides:
// mixed clusters and elastic sessions do; homogeneous static scenarios
// keep the asynchronous path (and their historical byte-exact
// results).
func (s Scenario) Synchronous() bool {
	return s.ClusterSpec().Heterogeneous() || s.ElasticName() != manager.DefaultElasticPolicyName
}

// Label renders the scenario for table rows and unit keys. The
// revocation model appears only when one was named, so grids over the
// implicit default read (and key) exactly as before the model axis
// existed.
func (s Scenario) Label() string {
	var base string
	if len(s.Cluster) > 0 {
		base = fmt.Sprintf("%v %v %v", s.ClusterSpec(), s.Region, s.Tier)
	} else {
		base = fmt.Sprintf("%d×%v %v %v", s.Workers, s.GPU, s.Region, s.Tier)
	}
	if s.ElasticName() != manager.DefaultElasticPolicyName {
		base += " " + s.Elastic
	}
	if s.RevModel != "" {
		base += " rev=" + s.RevModel
	}
	if s.Provider != "" {
		base += " prov=" + s.Provider
	}
	return base
}

// ProviderName resolves the scenario's provider name with the default
// applied — the canonical form Key embeds.
func (s Scenario) ProviderName() string {
	if s.Provider == "" {
		return cloud.DefaultProviderName
	}
	return s.Provider
}

// RevModelName resolves the scenario's revocation model name with the
// default applied (cloud.LifetimeModelFor) — the canonical form Key
// embeds.
func (s Scenario) RevModelName() string { return cloud.LifetimeModelFor(s.RevModel, s.Provider) }

// Key is the scenario's canonical identity: a stable, unambiguous
// field=value encoding that does not depend on which grid produced the
// scenario or on display formatting. The planner's result cache and
// singleflight coalescing key on it (plus workload target and seed —
// see ScenarioKey), so any two queries that mean the same measurement
// share one cache line no matter how they were phrased.
// Both worker-composition phrasings normalize before encoding — an
// explicit homogeneous Cluster and the plain GPU/Workers fields land on
// the same key, so the two spellings share one cache line.
func (s Scenario) Key() string {
	cluster := s.ClusterSpec()
	gpu := s.GPU
	workers := s.Workers
	if len(s.Cluster) > 0 {
		gpu = cluster[0].GPU
		workers = cluster.TotalWorkers()
	}
	return fmt.Sprintf("model=%s|gpu=%s|region=%s|tier=%s|workers=%d|cluster=%s|elastic=%s|rev=%s|prov=%s",
		s.Model.Name, gpu, s.Region, s.Tier, workers, cluster, s.ElasticName(), s.RevModelName(), s.ProviderName())
}

// ScenarioKey canonically identifies one measured scenario run: the
// scenario identity plus the workload target and checkpoint interval
// that parameterize the session. Appending the campaign seed to this
// string yields the planner's full cache key.
func ScenarioKey(sc Scenario, steps, checkpointInterval int64) string {
	return fmt.Sprintf("%s|steps=%d|ic=%d", sc.Key(), steps, checkpointInterval)
}

// Scenarios expands the grid in declaration order (provider →
// revocation model → GPU → region → tier → size), skipping (region,
// GPU) cells the provider's catalog does not offer, mirroring the
// paper's own campaign structure. Unknown provider names expand
// unfiltered so the measurement surfaces the lookup error instead of
// silently producing an empty grid.
func (s SweepSpec) Scenarios() []Scenario {
	revs := s.RevModels
	if len(revs) == 0 {
		revs = []string{""}
	}
	provs := s.Providers
	if len(provs) == 0 {
		provs = []string{""}
	}
	var out []Scenario
	for _, prov := range provs {
		spec, specErr := cloud.LookupProvider(prov)
		for _, rev := range revs {
			for _, g := range s.GPUs {
				for _, r := range s.Regions {
					if specErr == nil && !spec.Offers(r, g) {
						continue
					}
					for _, tier := range s.Tiers {
						for _, n := range s.Sizes {
							out = append(out, Scenario{Model: s.Model, GPU: g, Region: r, Tier: tier, RevModel: rev, Provider: prov, Workers: n})
						}
					}
				}
			}
		}
	}
	return out
}

// ScenarioOutcome is one measured scenario.
type ScenarioOutcome struct {
	Scenario          Scenario
	TrainingSeconds   float64
	SteadySpeed       float64
	CheckpointCount   int
	CheckpointSeconds float64
	CostUSD           float64
	Revocations       int
	Replacements      int
	// Grows and Shrinks count the elastic resize loop's actions; zero
	// for static sessions.
	Grows   int
	Shrinks int
}

// SessionOptions tunes the managed session behind a measurement. The
// zero value is the sweep default: no dedicated parameter-server
// count, and the manager's own default replacement policy
// (ReplaceImmediate).
type SessionOptions struct {
	ParameterServers int
	Replacement      manager.ReplacementPolicy
	DelaySeconds     float64
	// Trace, when non-nil, receives the session's sim-plane timeline
	// (manager.Config.Trace); tracing never perturbs the measurement.
	Trace *obs.Recorder
}

// MeasureScenario measures one scenario with a full managed session
// on a fresh kernel, resolving the scenario's provider and revocation
// model by name (an unnamed revocation model means the provider's
// default regime). It takes the step target as given; a sweep scales
// it per worker before calling. It is also the building block
// cmd/cmdare and the planner use to validate an Eq. 4/5 pick against
// the simulated cloud.
func MeasureScenario(sc Scenario, steps, ic int64, opts SessionOptions, seed int64) (ScenarioOutcome, error) {
	lm, err := cloud.LookupLifetimeModel(sc.RevModelName())
	if err != nil {
		return ScenarioOutcome{}, err
	}
	return runScenarioWith(lm, sc, steps, ic, opts, seed)
}

// runScenarioWith is MeasureScenario under an explicit lifetime model —
// the path the revmodels experiment uses for models it builds itself
// (e.g. a trace replay) without going through the registry.
func runScenarioWith(lm cloud.LifetimeModel, sc Scenario, steps, ic int64, opts SessionOptions, seed int64) (ScenarioOutcome, error) {
	spec, err := cloud.LookupProvider(sc.Provider)
	if err != nil {
		return ScenarioOutcome{}, err
	}
	k := &sim.Kernel{}
	provider := cloud.NewProviderFor(k, stats.NewRng(seed), spec, lm)
	gpus := sc.ClusterSpec().GPUs()
	placements := make([]manager.Placement, len(gpus))
	for i, g := range gpus {
		placements[i] = manager.Placement{GPU: g, Region: sc.Region, Tier: sc.Tier}
	}
	sess, err := manager.NewSession(provider, manager.Config{
		Model:              sc.Model,
		Workers:            placements,
		ParameterServers:   opts.ParameterServers,
		TargetSteps:        steps,
		CheckpointInterval: ic,
		Replacement:        opts.Replacement,
		DelaySeconds:       opts.DelaySeconds,
		Elastic:            sc.Elastic,
		Seed:               seed + 1,
		Trace:              opts.Trace,
	})
	if err != nil {
		return ScenarioOutcome{}, err
	}
	// A week of virtual time bounds the run; scenarios that cannot
	// finish by then fail loudly instead of hanging the sweep.
	k.RunUntil(sim.Time(7 * 24 * 3600))
	if !sess.Done() {
		return ScenarioOutcome{}, fmt.Errorf("%s did not reach %d steps (at %d) within a week of virtual time",
			sc.Label(), steps, sess.Cluster().GlobalStep())
	}
	sess.TerminateAll()
	res := sess.Cluster().Result()
	return ScenarioOutcome{
		Scenario:          sc,
		TrainingSeconds:   sess.TrainingSeconds(),
		SteadySpeed:       res.SteadySpeed,
		CheckpointCount:   res.CheckpointCount,
		CheckpointSeconds: res.CheckpointSeconds,
		CostUSD:           sess.Cost(),
		Revocations:       sess.Revocations(),
		Replacements:      sess.Replacements(),
		Grows:             sess.Grows(),
		Shrinks:           sess.Shrinks(),
	}, nil
}

// declare adds the sweep to p as a campaign: one unit per scenario.
func (s SweepSpec) declare(p *plan) *campaign.Plan {
	for _, sc := range s.Scenarios() {
		steps := s.StepsPerWorker * int64(sc.Workers)
		p.tunit("sweep/"+sc.Label(), func(unitSeed int64, rec *obs.Recorder) (any, error) {
			return MeasureScenario(sc, steps, s.CheckpointInterval, SessionOptions{Trace: rec}, unitSeed)
		})
	}
	return p.build(func(outs []any) (Result, error) {
		res := &SweepResult{Spec: s}
		for _, o := range outs {
			res.Outcomes = append(res.Outcomes, o.(ScenarioOutcome))
		}
		return res, nil
	})
}

// DefaultSweep is the grid behind the "sweep" experiment ID: the
// fastest canonical model across every GPU type, two regions with
// full GPU coverage, both tiers, and three cluster sizes.
func DefaultSweep() SweepSpec {
	return SweepSpec{
		Model:              model.ResNet15(),
		Sizes:              []int{1, 2, 4},
		GPUs:               model.AllGPUs(),
		Regions:            []cloud.Region{cloud.USCentral1, cloud.USWest1},
		Tiers:              []cloud.Tier{cloud.Transient, cloud.OnDemand},
		StepsPerWorker:     2000,
		CheckpointInterval: 1000,
	}
}

// SweepResult renders the measured grid.
type SweepResult struct {
	Spec     SweepSpec
	Outcomes []ScenarioOutcome
}

// String renders one row per scenario plus the measured frontier.
func (r *SweepResult) String() string {
	t := newTable(fmt.Sprintf("Scenario sweep — %s, %d steps/worker, Ic=%d",
		r.Spec.Model.Name, r.Spec.StepsPerWorker, r.Spec.CheckpointInterval),
		"scenario", "steps/s", "time (h)", "cost ($)", "revoked", "replaced", "$/1k steps")
	for _, o := range r.Outcomes {
		steps := r.Spec.StepsPerWorker * int64(o.Scenario.Workers)
		t.addRow(o.Scenario.Label(),
			fmt.Sprintf("%.2f", o.SteadySpeed),
			fmt.Sprintf("%.2f", o.TrainingSeconds/3600),
			fmt.Sprintf("%.2f", o.CostUSD),
			fmt.Sprintf("%d", o.Revocations),
			fmt.Sprintf("%d", o.Replacements),
			fmt.Sprintf("%.3f", o.CostUSD/(float64(steps)/1000)))
	}
	if best, ok := r.Cheapest(); ok {
		t.addNote("cheapest per step: %s ($%.3f/1k steps)", best.Scenario.Label(),
			best.CostUSD/(float64(r.Spec.StepsPerWorker*int64(best.Scenario.Workers))/1000))
	}
	t.addNote("transient tiers trade revocation risk for the paper's ≈70%% price discount")
	return t.String()
}

// Cheapest returns the scenario with the lowest cost per training
// step — the same $/1k-steps quantity the rendered table shows — the
// headline the cost-planner example optimizes for.
func (r *SweepResult) Cheapest() (ScenarioOutcome, bool) {
	if len(r.Outcomes) == 0 {
		return ScenarioOutcome{}, false
	}
	perStep := func(o ScenarioOutcome) float64 {
		return o.CostUSD / float64(r.Spec.StepsPerWorker*int64(o.Scenario.Workers))
	}
	best := r.Outcomes[0]
	for _, o := range r.Outcomes[1:] {
		if perStep(o) < perStep(best) {
			best = o
		}
	}
	return best, true
}
