package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config declares one fleet simulation: a workload, a pool, and a
// policy.
type Config struct {
	Workload WorkloadSpec
	// Scheduler names the admission policy (registry name; empty:
	// fifo).
	Scheduler string
	// RevModel names the revocation/lifetime regime of the simulated
	// cloud (cloud registry name). Empty means each market's own
	// default regime (the Table V default for the default market); a
	// non-empty name applies to every market.
	RevModel string
	// Providers lists the markets the fleet schedules across (cloud
	// provider registry names, one cloud.Provider each on the shared
	// kernel). Empty means the default single market; the first entry
	// is the default market unqualified placements run in.
	Providers []string
	// Capacity bounds the transient pool per (region, GPU) cell; nil
	// means infinite, reducing the fleet to independent jobs.
	Capacity cloud.Capacity
	// Elastic names the manager resize policy every job session runs
	// under ("static", "elastic", "surge"); empty means static. Elastic
	// sessions consult the fleet's own revocation history (scaled onto
	// the diurnal prior) instead of the prior alone.
	Elastic string
	// HorizonHours bounds the simulation (0: a week, matching the
	// single-scenario cap).
	HorizonHours float64
	// WorkloadSeed seeds job generation separately from the
	// simulation seed, so scheduler comparisons can face an identical
	// job stream while the cloud's randomness varies per replication
	// (0: derive from the simulation seed).
	WorkloadSeed int64
}

// DefaultHorizonHours bounds a fleet run when the config names no
// horizon: one week, the same cap experiments.MeasureScenario puts on
// a single session.
const DefaultHorizonHours = 7 * 24

// marketPlan is one resolved market of a validated config.
type marketPlan struct {
	spec *cloud.ProviderSpec
	lm   cloud.LifetimeModel
}

// validate resolves names and fills defaults, returning the resolved
// scheduler and one market plan per configured provider.
func (c *Config) validate() (Scheduler, []marketPlan, error) {
	sched, err := LookupScheduler(c.Scheduler)
	if err != nil {
		return nil, nil, err
	}
	var markets []marketPlan
	seen := map[string]bool{}
	for _, name := range c.providerNames() {
		spec, err := cloud.LookupProvider(name)
		if err != nil {
			return nil, nil, err
		}
		if seen[spec.Name] {
			return nil, nil, fmt.Errorf("fleet: provider %q listed twice", spec.Name)
		}
		seen[spec.Name] = true
		// An explicit regime applies to every market; otherwise each
		// market keeps its own default climate.
		lm, err := cloud.LookupLifetimeModel(cloud.LifetimeModelFor(c.RevModel, spec.Name))
		if err != nil {
			return nil, nil, err
		}
		markets = append(markets, marketPlan{spec: spec, lm: lm})
	}
	if err := c.Workload.Validate(); err != nil {
		return nil, nil, err
	}
	if _, err := manager.ElasticPolicyByName(c.Elastic); err != nil {
		return nil, nil, err
	}
	if c.HorizonHours < 0 {
		return nil, nil, fmt.Errorf("fleet: negative horizon")
	}
	if c.HorizonHours == 0 {
		c.HorizonHours = DefaultHorizonHours
	}
	return sched, markets, nil
}

// Validate checks the config without running it — the planner's 400
// path. It works on a copy, so the receiver's zero fields stay zero
// (Key canonicalizes defaults itself).
func (c Config) Validate() error {
	_, _, err := (&c).validate()
	return err
}

// providerNames resolves the configured markets with the default
// applied — the canonical list Key embeds (empty entries mean the
// default market, like everywhere else the name is optional).
func (c Config) providerNames() []string {
	if len(c.Providers) == 0 {
		return []string{cloud.DefaultProviderName}
	}
	out := make([]string, len(c.Providers))
	for i, name := range c.Providers {
		if name == "" {
			name = cloud.DefaultProviderName
		}
		out[i] = name
	}
	return out
}

// schedulerName resolves the config's scheduler with the default
// applied — the canonical form Key embeds.
func (c Config) schedulerName() string {
	if c.Scheduler == "" {
		return DefaultSchedulerName
	}
	return c.Scheduler
}

// elasticName resolves the config's elastic policy with the default
// applied — the canonical form Key embeds.
func (c Config) elasticName() string {
	if c.Elastic == "" {
		return manager.DefaultElasticPolicyName
	}
	return c.Elastic
}

// revModelName resolves the config's revocation model with the
// default applied: an explicit name, or the first market's default
// regime (the Table V default for the default market).
func (c Config) revModelName() string {
	return cloud.LifetimeModelFor(c.RevModel, c.providerNames()[0])
}

// Key is the fleet config's canonical identity: a stable field=value
// encoding, independent of how the config was phrased, that the
// planner's result cache keys on (plus the simulation seed). It lives
// in the same cache namespace as single-scenario keys; the "fleet|"
// prefix keeps the two families disjoint (scenario keys start with
// "model=").
func (c Config) Key() string {
	w := c.Workload
	arrival := w.Arrival
	if arrival == "" {
		arrival = ArrivalPoisson
	}
	ic := w.CheckpointInterval
	if ic == 0 {
		ic = 1000
	}
	horizon := c.HorizonHours
	if horizon == 0 {
		horizon = DefaultHorizonHours
	}
	return fmt.Sprintf("fleet|sched=%s|prov=%s|rev=%s|arrival=%s|rate=%g|jobs=%d|spw=%d|ic=%d|cap=%s|elastic=%s|horizon=%g|wseed=%d",
		c.schedulerName(), strings.Join(c.providerNames(), "+"), c.revModelName(), arrival,
		w.RatePerHour, w.Jobs, w.StepsPerWorker, ic,
		c.Capacity.Canonical(), c.elasticName(), horizon, c.WorkloadSeed)
}

// JobResult is one job's outcome.
type JobResult struct {
	ID            int     `json:"id"`
	Label         string  `json:"label"`
	Workers       int     `json:"workers"`
	Steps         int64   `json:"steps"`
	ArrivalHours  float64 `json:"arrival_hours"`
	DeadlineHours float64 `json:"deadline_hours"`
	BudgetUSD     float64 `json:"budget_usd"`
	// Placement is where the scheduler ran the job; empty if it was
	// still queued at the horizon.
	Placement string `json:"placement,omitempty"`
	// WaitHours is time spent queued before admission (or until the
	// horizon, for jobs never admitted).
	WaitHours float64 `json:"wait_hours"`
	Done      bool    `json:"done"`
	// EndHours is the completion time; 0 for unfinished jobs.
	EndHours     float64 `json:"end_hours,omitempty"`
	DeadlineMet  bool    `json:"deadline_met"`
	CostUSD      float64 `json:"cost_usd"`
	OverBudget   bool    `json:"over_budget"`
	Revocations  int     `json:"revocations"`
	Replacements int     `json:"replacements"`
}

// Result is one fleet run: per-job outcomes in arrival order plus the
// aggregates the scheduler comparison ranks on.
type Result struct {
	Scheduler string      `json:"scheduler"`
	Providers []string    `json:"providers"`
	RevModel  string      `json:"rev_model"`
	Capacity  string      `json:"capacity"`
	Jobs      []JobResult `json:"jobs"`

	Completed      int     `json:"completed"`
	DeadlineMisses int     `json:"deadline_misses"`
	OverBudgetJobs int     `json:"over_budget_jobs"`
	MakespanHours  float64 `json:"makespan_hours"`
	MeanWaitHours  float64 `json:"mean_wait_hours"`
	TotalCostUSD   float64 `json:"total_cost_usd"`
	Revocations    int     `json:"revocations"`

	// PeakInUse is each cell's maximum concurrent transient occupancy
	// over the run (keyed "region/GPU"), reconstructed from the
	// instance record — pool utilization for the operator, and the
	// observable the capacity property test pins: no constrained cell
	// may ever exceed its configured slots.
	PeakInUse map[string]int `json:"peak_in_use,omitempty"`
}

// jobState tracks one job through the run.
type jobState int

const (
	jobWaiting jobState = iota + 1
	jobRunning
	jobFinished
)

// Job is a workload entry plus its scheduling state; schedulers see
// the queue as []*Job and read Spec.
type Job struct {
	Spec JobSpec

	state      jobState
	placement  Placement
	admittedAt sim.Time
	endedAt    sim.Time
	sess       *manager.Session
}

// fleetMarket is one provider market of the fleet: a named
// cloud.Provider on the shared kernel.
type fleetMarket struct {
	name     string
	provider *cloud.Provider
}

// fleetSim is the run's mutable state; everything happens on the one
// simulation thread.
type fleetSim struct {
	cfg     Config
	k       *sim.Kernel
	markets []fleetMarket
	names   []string // the markets' names, for Markets
	sched   Scheduler
	seed    int64

	jobs  []*Job
	queue []*Job

	// history accumulates the run's own observations (completed-job
	// rates, startups, revocations) for history-aware schedulers; the
	// kernel appends passively in event order, so it never perturbs
	// the rng streams and history-blind policies stay byte-identical.
	history *History

	// wake is the pending time-driven admission re-check, for
	// schedulers implementing Waker; at most one is scheduled at a
	// time (the earliest requested).
	wake   sim.Handle
	wakeAt sim.Time

	admitting bool
	err       error

	// trace, when non-nil, receives the run's sim-plane timeline: the
	// fleet's own job lifecycle events plus each job session's events
	// under a "jobN" scope.
	trace *obs.Recorder
}

// marketFor resolves a placement's market name; empty means the first
// (default) market.
func (f *fleetSim) marketFor(name string) *fleetMarket {
	if name == "" {
		return &f.markets[0]
	}
	for i := range f.markets {
		if f.markets[i].name == name {
			return &f.markets[i]
		}
	}
	return nil
}

// The fleet itself is its schedulers' View: market names resolve
// through marketFor, and an unknown market offers nothing.

func (f *fleetSim) NowHours() float64  { return f.k.Now().Hours() }
func (f *fleetSim) Markets() []string  { return f.names }
func (f *fleetSim) Observed() *History { return f.history }

func (f *fleetSim) Spec(market string) *cloud.ProviderSpec {
	if m := f.marketFor(market); m != nil {
		return m.provider.Spec()
	}
	return nil
}

func (f *fleetSim) Available(market string, r cloud.Region, g model.GPU) int {
	if m := f.marketFor(market); m != nil {
		return m.provider.TransientAvailable(r, g)
	}
	return 0
}

func (f *fleetSim) Churning(market string, r cloud.Region) bool {
	if m := f.marketFor(market); m != nil {
		return m.provider.Churning(r)
	}
	return false
}

// Run simulates the fleet: jobs arrive on the virtual clock, the
// scheduler admits them against the shared capacity-constrained pool,
// each admitted job runs as a full managed session (replacements,
// checkpoints, churn — everything the single-job layers model), and
// revocations anywhere re-open admission everywhere. The result is a
// pure function of (cfg, seed): one kernel, one thread, no wall-clock
// input.
func Run(cfg Config, seed int64) (*Result, error) {
	return RunTraced(cfg, seed, nil)
}

// RunTraced is Run with a sim-plane trace recorder attached (nil means
// untraced — identical to Run). Recording draws no randomness and
// schedules no events, so the Result is byte-identical either way.
func RunTraced(cfg Config, seed int64, rec *obs.Recorder) (*Result, error) {
	sched, plans, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	names := cfg.providerNames()
	k := &sim.Kernel{}
	f := &fleetSim{cfg: cfg, k: k, names: names, sched: sched, seed: seed, history: &History{}, trace: rec}
	for i, plan := range plans {
		// The first market draws from stats.NewRng(seed) directly — the
		// exact stream the pre-market fleet used, so single-market runs
		// stay byte-identical. Further markets get independent derived
		// streams so adding a market never perturbs the first.
		rng := stats.NewRng(seed)
		if i > 0 {
			rng = stats.NewRng(campaign.Derive(seed, uint64(i), "fleet/market/"+names[i]))
		}
		provider := cloud.NewProviderFor(k, rng, plan.spec, plan.lm)
		// The fleet capacity bounds every market's pool cell-for-cell;
		// a nil one leaves every cell unconstrained.
		provider.SetTransientCapacity(cfg.Capacity)
		provider.SetCapacityFreedHook(func(cloud.PoolKey) { f.admit() })
		f.markets = append(f.markets, fleetMarket{name: names[i], provider: provider})
	}

	wseed := cfg.WorkloadSeed
	if wseed == 0 {
		wseed = campaign.Derive(seed, 0, "fleet/workload")
	}
	specs, err := cfg.Workload.Generate(stats.NewRng(wseed))
	if err != nil {
		return nil, err
	}

	horizon := sim.Time(cfg.HorizonHours * 3600)
	for i := range specs {
		job := &Job{Spec: specs[i], state: jobWaiting}
		f.jobs = append(f.jobs, job)
		if at := sim.Time(job.Spec.ArrivalSeconds); at <= horizon {
			k.At(at, func() { f.arrive(job) })
		}
	}
	k.RunUntil(horizon)
	if f.err != nil {
		return nil, f.err
	}
	return f.result(), nil
}

// arrive queues a job and tries admission.
func (f *fleetSim) arrive(job *Job) {
	if f.err != nil {
		return
	}
	f.queue = append(f.queue, job)
	f.trace.Record(obs.Event{
		T:      f.k.Now().Seconds(),
		Kind:   "job-arrive",
		Detail: job.Spec.Label(),
	})
	f.admit()
}

// admit drains the scheduler: ask for one pick at a time, start it,
// re-ask — every start consumes capacity synchronously, so each pick
// sees the true remaining pool. The guard flattens re-entrant calls
// (capacity freed while a session is being assembled) into the running
// loop.
func (f *fleetSim) admit() {
	if f.admitting || f.err != nil {
		return
	}
	f.admitting = true
	defer func() { f.admitting = false }()
	for len(f.queue) > 0 && f.err == nil {
		idx, pl, ok := f.sched.Pick(f.queue, f)
		if !ok {
			break
		}
		if idx < 0 || idx >= len(f.queue) {
			f.err = fmt.Errorf("fleet: scheduler %q picked queue index %d of %d", f.sched.Name(), idx, len(f.queue))
			return
		}
		job := f.queue[idx]
		f.queue = append(f.queue[:idx], f.queue[idx+1:]...)
		f.start(job, pl)
	}
	f.scheduleWake()
}

// wakeSlackSeconds pads a Waker's requested re-check past the exact
// threshold moment. The scheduler's "is it time yet" test recomputes
// hours from the kernel's seconds (now = t/3600), which can round to
// just below the requested hours at the requested instant — the wake
// would fire, decline, and every re-arm path would refuse (the moment
// is no longer ahead), silently dropping the fallback. One virtual
// second dwarfs any float64 rounding and costs nothing.
const wakeSlackSeconds = 1

// scheduleWake arms a time-driven admission re-check for schedulers
// whose decisions change with the clock alone (Waker): without it, a
// policy like deadline-aware's on-demand fallback would only ever fire
// piggybacked on an unrelated arrival, finish, or freed slot, and a
// quiet queue would starve past its deadlines.
func (f *fleetSim) scheduleWake() {
	if f.err != nil || len(f.queue) == 0 {
		return
	}
	w, ok := f.sched.(Waker)
	if !ok {
		return
	}
	hours, ok := w.NextWakeHours(f.queue, f)
	if !ok {
		return
	}
	at := sim.Time(hours*3600) + wakeSlackSeconds
	if at <= f.k.Now() {
		return // contract violation; refuse to busy-loop the kernel
	}
	if f.wake.Pending() && f.wakeAt <= at {
		return // an earlier (or equal) re-check is already armed
	}
	f.wake.Cancel()
	f.wakeAt = at
	f.wake = f.k.At(at, func() {
		f.wake = sim.Handle{}
		f.admit()
	})
}

// start turns an admitted job into a managed session on the shared
// provider.
func (f *fleetSim) start(job *Job, pl Placement) {
	mk := f.marketFor(pl.Market)
	if mk == nil {
		f.err = fmt.Errorf("fleet: scheduler %q placed %s in unknown market %q (markets: %v)",
			f.sched.Name(), job.Spec.Label(), pl.Market, f.cfg.providerNames())
		return
	}
	placements := make([]manager.Placement, job.Spec.Workers)
	for i := range placements {
		placements[i] = manager.Placement{GPU: pl.GPU, Region: pl.Region, Tier: pl.Tier}
	}
	mcfg := manager.Config{
		Model:              job.Spec.Model,
		Workers:            placements,
		TargetSteps:        job.Spec.Steps,
		CheckpointInterval: job.Spec.CheckpointInterval,
		Seed:               campaign.Derive(f.seed, uint64(job.Spec.ID), "fleet/job"),
		Trace:              f.trace.Scoped(fmt.Sprintf("job%d", job.Spec.ID)),
	}
	if name := f.cfg.elasticName(); name != manager.DefaultElasticPolicyName {
		mcfg.Elastic = name
		mcfg.Risk = historyRisk{hist: f.history, market: mk.name}
	}
	sess, err := manager.NewSession(mk.provider, mcfg)
	if err != nil {
		// Admission checked capacity, so this is a scheduler handing
		// out an infeasible placement — fail the run loudly rather
		// than silently dropping the job.
		f.err = fmt.Errorf("fleet: scheduler %q placed %s at %s: %w", f.sched.Name(), job.Spec.Label(), pl.Label(), err)
		return
	}
	job.state = jobRunning
	job.placement = pl
	job.admittedAt = f.k.Now()
	job.sess = sess
	f.trace.Record(obs.Event{
		T:      f.k.Now().Seconds(),
		Kind:   "job-place",
		Detail: fmt.Sprintf("%s @ %s", job.Spec.Label(), pl.Label()),
	})
	sess.Cluster().WhenStep(job.Spec.Steps, func() { f.finish(job) })
}

// finish records a completed job and re-opens admission (its
// termination freed transient slots; for an on-demand fallback job the
// pool is unchanged but re-asking is harmless).
func (f *fleetSim) finish(job *Job) {
	job.state = jobFinished
	job.endedAt = f.k.Now()
	f.trace.Record(obs.Event{
		T:      f.k.Now().Seconds(),
		Kind:   "job-done",
		Detail: job.Spec.Label(),
	})
	f.observe(job)
	f.admit()
}

// observe folds a finished job into the run's history: the realized
// per-job training rate plus per-instance startup and lifetime
// samples swept from the session's record. The manager's own
// WhenStep(TargetSteps) registers first, so by the time this fires
// every owned instance is terminal and the samples are final.
func (f *fleetSim) observe(job *Job) {
	mk := f.marketFor(job.placement.Market)
	if mk == nil || job.sess == nil {
		return
	}
	f.history.recordCompleted(CompletedJob{
		Market:     mk.name,
		GPU:        job.placement.GPU,
		Tier:       job.placement.Tier,
		GFLOPs:     job.Spec.Model.GFLOPs,
		Workers:    job.Spec.Workers,
		Steps:      job.Spec.Steps,
		TrainHours: job.sess.TrainingSeconds() / 3600,
	})
	for _, in := range job.sess.Instances() {
		if in.GPU == 0 {
			continue // parameter servers carry no GPU-market signal
		}
		if in.RunningAt > in.RequestedAt {
			f.history.recordStartup(StartupSample{
				Market:  mk.name,
				Region:  in.Region,
				GPU:     in.GPU,
				Tier:    in.Tier,
				Seconds: float64(in.RunningAt - in.RequestedAt),
			})
		}
		if in.Tier == cloud.Transient {
			f.history.recordExposure(mk.name, in.Region,
				in.LifetimeSeconds(f.k.Now())/3600, in.WasRevoked())
		}
	}
}

// result assembles per-job outcomes and aggregates.
func (f *fleetSim) result() *Result {
	horizon := f.cfg.HorizonHours
	res := &Result{
		Scheduler: f.cfg.schedulerName(),
		Providers: f.cfg.providerNames(),
		RevModel:  f.cfg.revModelName(),
		Capacity:  f.cfg.Capacity.Canonical(),
	}
	var waitSum, makespan float64
	for _, job := range f.jobs {
		jr := JobResult{
			ID:            job.Spec.ID,
			Label:         job.Spec.Label(),
			Workers:       job.Spec.Workers,
			Steps:         job.Spec.Steps,
			ArrivalHours:  job.Spec.ArrivalSeconds / 3600,
			DeadlineHours: job.Spec.DeadlineHours,
			BudgetUSD:     job.Spec.BudgetUSD,
		}
		switch job.state {
		case jobWaiting:
			jr.WaitHours = horizon - jr.ArrivalHours
			if jr.WaitHours < 0 {
				jr.WaitHours = 0 // arrived after the horizon
			}
		default:
			jr.Placement = job.placement.Label()
			jr.WaitHours = job.admittedAt.Hours() - jr.ArrivalHours
			jr.CostUSD = job.sess.Cost()
			jr.Revocations = job.sess.Revocations()
			jr.Replacements = job.sess.Replacements()
			jr.OverBudget = jr.CostUSD > jr.BudgetUSD
			if job.state == jobFinished {
				jr.Done = true
				jr.EndHours = job.endedAt.Hours()
				jr.DeadlineMet = jr.EndHours <= job.Spec.DeadlineAtHours()
			}
		}
		if jr.Done {
			res.Completed++
			if jr.EndHours > makespan {
				makespan = jr.EndHours
			}
		} else {
			makespan = horizon
		}
		if !jr.DeadlineMet {
			res.DeadlineMisses++
		}
		if jr.OverBudget {
			res.OverBudgetJobs++
		}
		res.Revocations += jr.Revocations
		waitSum += jr.WaitHours
		res.Jobs = append(res.Jobs, jr)
	}
	res.MakespanHours = makespan
	if len(f.jobs) > 0 {
		res.MeanWaitHours = waitSum / float64(len(f.jobs))
	}
	for _, m := range f.markets {
		res.TotalCostUSD += m.provider.TotalCost()
	}
	res.PeakInUse = f.peakInUse()
	return res
}

// peakInUse sweeps each market's instance record for each cell's
// maximum concurrent transient occupancy, counting every server from
// acceptance to its terminal state (the span it holds a pool slot).
// Single-market keys stay bare "region/GPU"; a multi-market fleet
// prefixes them "market:region/GPU" since each market rations its own
// pool.
func (f *fleetSim) peakInUse() map[string]int {
	type edge struct {
		at    sim.Time
		delta int
	}
	type cell struct {
		market string
		key    cloud.PoolKey
	}
	edges := make(map[cell][]edge)
	for _, m := range f.markets {
		market := ""
		if len(f.markets) > 1 {
			market = m.name
		}
		for _, in := range m.provider.Instances() {
			if in.Tier != cloud.Transient || in.GPU == 0 {
				continue
			}
			c := cell{market: market, key: cloud.PoolKey{Region: in.Region, GPU: in.GPU}}
			end := f.k.Now()
			if in.State().Done() {
				end = in.EndedAt
			}
			edges[c] = append(edges[c], edge{in.RequestedAt, +1}, edge{end, -1})
		}
	}
	if len(edges) == 0 {
		return nil
	}
	peaks := make(map[string]int, len(edges))
	for c, es := range edges {
		// Releases sort before acquisitions at equal times: the
		// provider frees a revoked slot before the immediate
		// replacement claims it within the same event.
		sort.Slice(es, func(i, j int) bool {
			if es[i].at != es[j].at {
				return es[i].at < es[j].at
			}
			return es[i].delta < es[j].delta
		})
		cur, peak := 0, 0
		for _, e := range es {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		name := c.key.String()
		if c.market != "" {
			name = c.market + ":" + name
		}
		peaks[name] = peak
	}
	return peaks
}

// CapacityFromCells parses "region/GPU:n" terms (the canonical form
// Capacity.Canonical emits and /v1/fleet accepts) into a Capacity.
func CapacityFromCells(cells map[string]int) (cloud.Capacity, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	cap := make(cloud.Capacity, len(cells))
	for name, n := range cells {
		key, err := cloud.ParsePoolKey(name)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("fleet: capacity for %s must be positive, got %d", key, n)
		}
		cap[key] = n
	}
	return cap, nil
}
