// Package planner turns the repo's batch measurement campaigns into
// an interactive what-if service: the decision-support payoff of the
// paper (pick cluster size, GPU type, region, and tier under
// revocation risk to hit a cost/time target, Eqs. 4–5 and Tables
// V–VII) answered as queries against a long-running daemon rather
// than re-run scripts.
//
// The planner adds what the batch path lacks:
//
//   - a seed-keyed LRU result cache: a simulated session is a pure
//     function of (canonical scenario key, campaign seed), so a
//     repeated query is a lookup, never a second simulation;
//   - singleflight coalescing: concurrent identical queries share one
//     simulation run;
//   - a shared campaign.Pool with a bounded admission queue, so heavy
//     query traffic backpressures instead of forking unbounded work;
//   - per-request contexts: a disconnected or canceled client stops
//     dispatching its remaining scenarios.
//
// cmd/pland serves this over HTTP/JSON; examples/costplanner is a
// thin client of the same API.
package planner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/obs"
)

// Per-query bounds: a single request may not fan out wider than the
// service can hold in memory, however the grid was phrased. Both are
// generous multiples of anything the paper's configuration space
// needs.
const (
	// maxWorkersPerScenario caps the cluster size of one scenario.
	maxWorkersPerScenario = 1024
	// maxGridCells caps the expanded scenario count of one sweep or
	// cheapest query.
	maxGridCells = 4096
)

// Config sizes the planner.
type Config struct {
	// Workers is the shared simulation pool size (≤ 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue feeding the pool; a full
	// queue blocks new dispatch until a slot frees, providing
	// backpressure across all concurrent queries (≤ 0: 64).
	QueueDepth int
	// CacheSize is the LRU capacity in scenario outcomes (≤ 0: 4096).
	CacheSize int
}

// Stats is a point-in-time snapshot of the planner's cache,
// coalescing, and pool-utilization counters.
type Stats struct {
	// Hits counts queries answered straight from the cache.
	Hits int64 `json:"hits"`
	// Misses counts simulations actually run (singleflight leaders).
	Misses int64 `json:"misses"`
	// Coalesced counts queries that piggybacked on an identical
	// in-flight simulation instead of running their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts cache entries displaced by capacity.
	Evictions int64 `json:"evictions"`
	// CacheEntries is the current cache population.
	CacheEntries int `json:"cache_entries"`
	// InFlight is how many simulation units are executing right now.
	InFlight int64 `json:"in_flight"`
	// Rejections counts queries that returned without an answer
	// because their measurement was interrupted (canceled client,
	// pool shutdown) rather than failing on its own terms.
	Rejections int64 `json:"rejections"`
	// PoolWorkers is the shared pool's fixed worker count;
	// QueueCapacity its admission queue size; QueueDepth the jobs
	// waiting in that queue right now.
	PoolWorkers   int `json:"pool_workers"`
	QueueCapacity int `json:"queue_capacity"`
	QueueDepth    int `json:"queue_depth"`
	// PoolJobsRun counts completed pool jobs; PoolWaitSeconds and
	// PoolBusySeconds total their queue wait and execution wall time.
	PoolJobsRun     int64   `json:"pool_jobs_run"`
	PoolWaitSeconds float64 `json:"pool_wait_seconds"`
	PoolBusySeconds float64 `json:"pool_busy_seconds"`
}

// Planner answers scenario queries on a shared simulation pool.
type Planner struct {
	pool    *campaign.Pool
	cache   *lru
	flights flightGroup

	hits, misses, coalesced, evictions atomic.Int64
	inflight, rejections               atomic.Int64

	// measure runs one scenario simulation; swapped out by tests to
	// count and stub runs.
	measure func(sc experiments.Scenario, steps, ic, seed int64) (experiments.ScenarioOutcome, error)
	// runFleet runs one fleet simulation; swapped out by tests, like
	// measure.
	runFleet func(cfg fleet.Config, seed int64) (*fleet.Result, error)
	// measureTraced and runFleetTraced are the trace-opt-in variants:
	// the same simulations run with a sim-plane recorder attached,
	// returning the events alongside the result. Swapped out by tests,
	// like measure and runFleet.
	measureTraced  func(sc experiments.Scenario, steps, ic, seed int64) (experiments.ScenarioOutcome, []obs.Event, error)
	runFleetTraced func(cfg fleet.Config, seed int64) (*fleet.Result, []obs.Event, error)

	// Service-plane metrics, built lazily by Metrics(): func-metrics
	// over the atomics above plus the per-endpoint latency histograms
	// the HTTP layer feeds.
	metricsOnce sync.Once
	registry    *obs.Registry
	httpLatency *obs.HistogramVec
}

// New starts a planner with its worker pool. Close releases the pool.
func New(cfg Config) *Planner {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	return &Planner{
		pool:  campaign.NewPool(cfg.Workers, cfg.QueueDepth),
		cache: newLRU(cfg.CacheSize),
		measure: func(sc experiments.Scenario, steps, ic, seed int64) (experiments.ScenarioOutcome, error) {
			return experiments.MeasureScenario(sc, steps, ic, experiments.SessionOptions{}, seed)
		},
		runFleet: fleet.Run,
		measureTraced: func(sc experiments.Scenario, steps, ic, seed int64) (experiments.ScenarioOutcome, []obs.Event, error) {
			rec := obs.NewRecorder()
			out, err := experiments.MeasureScenario(sc, steps, ic, experiments.SessionOptions{Trace: rec}, seed)
			return out, rec.Events(), err
		},
		runFleetTraced: func(cfg fleet.Config, seed int64) (*fleet.Result, []obs.Event, error) {
			rec := obs.NewRecorder()
			res, err := fleet.RunTraced(cfg, seed, rec)
			return res, rec.Events(), err
		},
	}
}

// Close drains and stops the shared pool.
func (p *Planner) Close() { p.pool.Close() }

// Stats snapshots the counters.
func (p *Planner) Stats() Stats {
	ps := p.pool.Stats()
	return Stats{
		Hits:            p.hits.Load(),
		Misses:          p.misses.Load(),
		Coalesced:       p.coalesced.Load(),
		Evictions:       p.evictions.Load(),
		CacheEntries:    p.cache.Len(),
		InFlight:        p.inflight.Load(),
		Rejections:      p.rejections.Load(),
		PoolWorkers:     ps.Workers,
		QueueCapacity:   ps.QueueCapacity,
		QueueDepth:      ps.QueueDepth,
		PoolJobsRun:     ps.JobsRun,
		PoolWaitSeconds: ps.WaitSeconds,
		PoolBusySeconds: ps.BusySeconds,
	}
}

// cacheKey is the planner's full result identity: canonical scenario
// key (grid-shape independent) plus the campaign seed. The simulation
// seed handed to the kernel is campaign.Derive(seed, 0, scenario key),
// a pure function of this same identity — so equal keys are guaranteed
// equal outcomes and the cache can never serve a wrong answer.
func cacheKey(sc experiments.Scenario, steps, ic, seed int64) string {
	return fmt.Sprintf("%s|seed=%d", experiments.ScenarioKey(sc, steps, ic), seed)
}

// interruptedError reports errors meaning the measurement never ran
// (skipped, canceled, pool shut down) — as opposed to a scenario that
// ran and failed on its own terms (e.g. the week-of-virtual-time cap).
func interruptedError(err error) bool {
	return errors.Is(err, campaign.ErrSkipped) ||
		errors.Is(err, campaign.ErrPoolClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// measureCached is every measured query's path: cache, then
// singleflight, then one unit dispatched onto the shared pool.
func (p *Planner) measureCached(ctx context.Context, sc experiments.Scenario, steps, ic, seed int64) (out experiments.ScenarioOutcome, cached bool, err error) {
	key := cacheKey(sc, steps, ic, seed)
	v, cached, err := p.cached(ctx, key, func() (any, error) {
		return p.simulate(ctx, sc, steps, ic, seed)
	})
	if err != nil {
		return experiments.ScenarioOutcome{}, false, err
	}
	return v.(experiments.ScenarioOutcome), cached, nil
}

// cached is the shared cache → singleflight → run path behind every
// cacheable query family (single scenarios and fleet runs). run must
// produce a pure function of key; its result lands in the LRU.
func (p *Planner) cached(ctx context.Context, key string, run func() (any, error)) (out any, cached bool, err error) {
	for {
		if v, ok := p.cache.Get(key); ok {
			p.hits.Add(1)
			return v, true, nil
		}
		var leaderHit bool
		v, shared, err := p.flights.Do(ctx, key, func() (any, error) {
			// Re-check under flight leadership: a previous leader may
			// have filled the cache between our miss and our Do —
			// becoming the new leader then must not re-simulate a
			// cached key.
			if v, ok := p.cache.Get(key); ok {
				p.hits.Add(1)
				leaderHit = true
				return v, nil
			}
			p.misses.Add(1)
			out, err := run()
			if err == nil {
				if p.cache.Add(key, out) {
					p.evictions.Add(1)
				}
			}
			return out, err
		})
		if shared {
			p.coalesced.Add(1)
			// The leader runs under its own request context; if it was
			// canceled, its death must not poison this still-healthy
			// follower — retry, becoming (or joining) a fresh leader.
			if err != nil && ctx.Err() == nil &&
				interruptedError(err) && !errors.Is(err, campaign.ErrPoolClosed) {
				continue
			}
		}
		// A query leaving without an answer because its measurement
		// never completed (canceled client, shutdown) is a rejection;
		// a scenario that ran and failed on its own terms is not.
		if err != nil && interruptedError(err) {
			p.rejections.Add(1)
		}
		return v, leaderHit, err
	}
}

// simulate runs one scenario as a single-unit campaign plan on the
// shared pool, inheriting the engine's seed derivation and panic
// containment.
func (p *Planner) simulate(ctx context.Context, sc experiments.Scenario, steps, ic, seed int64) (experiments.ScenarioOutcome, error) {
	plan := &campaign.Plan{
		Seed: seed,
		Units: []campaign.Unit{{
			Key: experiments.ScenarioKey(sc, steps, ic),
			Run: func(unitSeed int64) (any, error) {
				p.inflight.Add(1)
				defer p.inflight.Add(-1)
				return p.measure(sc, steps, ic, unitSeed)
			},
		}},
	}
	v, err := campaign.Engine{Pool: p.pool}.RunContext(ctx, plan)
	if err != nil {
		return experiments.ScenarioOutcome{}, err
	}
	return v.([]any)[0].(experiments.ScenarioOutcome), nil
}

// tracedOutcome is what the cache stores for a traced scenario query:
// the outcome plus its sim-plane event trace.
type tracedOutcome struct {
	out    experiments.ScenarioOutcome
	events []obs.Event
}

// simulateTraced is simulate with the sim-plane recorder attached. The
// unit Key is identical to simulate's, so the derived simulation seed
// — and therefore the outcome — is exactly the untraced query's;
// only the cache key (the "|trace=1" suffix) differs.
func (p *Planner) simulateTraced(ctx context.Context, sc experiments.Scenario, steps, ic, seed int64) (tracedOutcome, error) {
	plan := &campaign.Plan{
		Seed: seed,
		Units: []campaign.Unit{{
			Key: experiments.ScenarioKey(sc, steps, ic),
			Run: func(unitSeed int64) (any, error) {
				p.inflight.Add(1)
				defer p.inflight.Add(-1)
				out, events, err := p.measureTraced(sc, steps, ic, unitSeed)
				if err != nil {
					return nil, err
				}
				return tracedOutcome{out: out, events: events}, nil
			},
		}},
	}
	v, err := campaign.Engine{Pool: p.pool}.RunContext(ctx, plan)
	if err != nil {
		return tracedOutcome{}, err
	}
	return v.([]any)[0].(tracedOutcome), nil
}

// Outcome is the wire form of one measured scenario.
type Outcome struct {
	Scenario          string  `json:"scenario"`
	Key               string  `json:"key"`
	Seed              int64   `json:"seed"`
	TrainingHours     float64 `json:"training_hours"`
	SteadyStepsPerSec float64 `json:"steady_steps_per_sec"`
	CheckpointCount   int     `json:"checkpoint_count"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	CostUSD           float64 `json:"cost_usd"`
	Revocations       int     `json:"revocations"`
	Replacements      int     `json:"replacements"`
	CostPer1kSteps    float64 `json:"cost_per_1k_steps"`
	Cached            bool    `json:"cached"`
	// Trace is the session's sim-plane event trace, present only when
	// the query opted in. Sim-time-stamped and a pure function of
	// (scenario key, seed): the traced outcome's numbers are identical
	// to the untraced query's.
	Trace []obs.Event `json:"trace,omitempty"`
}

func wireOutcome(o experiments.ScenarioOutcome, steps, ic, seed int64, cached bool) Outcome {
	w := Outcome{
		Scenario:          o.Scenario.Label(),
		Key:               experiments.ScenarioKey(o.Scenario, steps, ic),
		Seed:              seed,
		TrainingHours:     o.TrainingSeconds / 3600,
		SteadyStepsPerSec: o.SteadySpeed,
		CheckpointCount:   o.CheckpointCount,
		CheckpointSeconds: o.CheckpointSeconds,
		CostUSD:           o.CostUSD,
		Revocations:       o.Revocations,
		Replacements:      o.Replacements,
		Cached:            cached,
	}
	if steps > 0 {
		w.CostPer1kSteps = o.CostUSD / (float64(steps) / 1000)
	}
	return w
}

// ScenarioQuery names one scenario over the wire.
type ScenarioQuery struct {
	Model   string `json:"model"`
	GPU     string `json:"gpu"`
	Region  string `json:"region"`
	Tier    string `json:"tier"`
	Workers int    `json:"workers"`
	// Cluster names a (possibly mixed-GPU) worker shape in the
	// "2xK80+1xV100" notation, replacing the gpu/workers pair — give
	// one phrasing or the other, not both. A homogeneous cluster
	// canonicalizes to the same scenario key as the equivalent
	// gpu/workers query, so both phrasings share one cache line.
	Cluster string `json:"cluster,omitempty"`
	// Elastic names a cluster membership policy from the catalog's
	// elastic_policies list. Empty (or "static") holds the launch
	// shape and only replaces revocations.
	Elastic string `json:"elastic,omitempty"`
	// RevModel selects the revocation/lifetime regime the simulated
	// cloud applies to transient servers — a name from the catalog's
	// lifetime_models list (builtins plus any -trace registrations).
	// Empty means the provider's default regime (Table V for gce).
	RevModel string `json:"rev_model,omitempty"`
	// Provider selects the provider world (catalog, price book,
	// startup, climate) — a name from the catalog's providers list.
	// Empty means the default (gce).
	Provider string `json:"provider,omitempty"`
	// TargetSteps is the total training target Nw (required).
	TargetSteps int64 `json:"target_steps"`
	// CheckpointInterval is Ic in steps (0: 1000).
	CheckpointInterval int64 `json:"checkpoint_interval"`
	Seed               int64 `json:"seed"`
	// Trace opts in to the sim-plane event trace: the outcome gains a
	// trace field with the session's event timeline. Tracing never
	// perturbs the simulation, so traced and untraced outcomes are
	// numerically identical; traced results are cached separately.
	Trace bool `json:"trace,omitempty"`
}

func (q ScenarioQuery) scenario() (experiments.Scenario, int64, int64, error) {
	m, err := model.ByName(q.Model)
	if err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	var cluster model.ClusterSpec
	var g model.GPU
	workers := q.Workers
	if q.Cluster != "" {
		if q.GPU != "" || q.Workers != 0 {
			return experiments.Scenario{}, 0, 0, fmt.Errorf("planner: cluster replaces gpu/workers; give one phrasing, not both")
		}
		cluster, err = model.ParseClusterSpec(q.Cluster)
		if err != nil {
			return experiments.Scenario{}, 0, 0, err
		}
		g = cluster[0].GPU
		workers = cluster.TotalWorkers()
	} else {
		g, err = model.ParseGPU(q.GPU)
		if err != nil {
			return experiments.Scenario{}, 0, 0, err
		}
	}
	r, err := cloud.ParseRegion(q.Region)
	if err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	tier, err := cloud.ParseTier(q.Tier)
	if err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	spec, err := cloud.LookupProvider(q.Provider)
	if err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	offered := cluster
	if offered == nil {
		offered = model.ClusterSpec{{GPU: g, Count: 1}}
	}
	for _, grp := range offered {
		if !spec.Offers(r, grp.GPU) {
			return experiments.Scenario{}, 0, 0, fmt.Errorf("planner: %s is not offered in %s by provider %s", grp.GPU, r, spec.Name)
		}
	}
	if q.RevModel != "" {
		if _, err := cloud.LookupLifetimeModel(q.RevModel); err != nil {
			return experiments.Scenario{}, 0, 0, err
		}
	}
	if _, err := manager.ElasticPolicyByName(q.Elastic); err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	if workers <= 0 {
		return experiments.Scenario{}, 0, 0, fmt.Errorf("planner: workers must be positive")
	}
	if workers > maxWorkersPerScenario {
		return experiments.Scenario{}, 0, 0, fmt.Errorf("planner: workers %d exceeds the per-scenario limit of %d", workers, maxWorkersPerScenario)
	}
	if q.TargetSteps <= 0 {
		return experiments.Scenario{}, 0, 0, fmt.Errorf("planner: target_steps must be positive")
	}
	ic, err := resolveCheckpointInterval(q.CheckpointInterval)
	if err != nil {
		return experiments.Scenario{}, 0, 0, err
	}
	sc := experiments.Scenario{Model: m, GPU: g, Region: r, Tier: tier, RevModel: q.RevModel, Provider: q.Provider, Workers: workers, Cluster: cluster, Elastic: q.Elastic}
	return sc, q.TargetSteps, ic, nil
}

// resolveCheckpointInterval applies the shared Ic contract: 0 means
// the default of 1000 steps, negative is a client error.
func resolveCheckpointInterval(ic int64) (int64, error) {
	switch {
	case ic < 0:
		return 0, fmt.Errorf("planner: checkpoint_interval must not be negative")
	case ic == 0:
		return 1000, nil
	default:
		return ic, nil
	}
}

// Measure answers a single-scenario query with a full measured session
// (cached, coalesced). A traced query runs the identical simulation
// with the recorder attached and caches under its own key.
func (p *Planner) Measure(ctx context.Context, q ScenarioQuery) (Outcome, error) {
	sc, steps, ic, err := q.scenario()
	if err != nil {
		return Outcome{}, &BadRequestError{err}
	}
	if q.Trace {
		key := cacheKey(sc, steps, ic, q.Seed) + "|trace=1"
		v, cached, err := p.cached(ctx, key, func() (any, error) {
			return p.simulateTraced(ctx, sc, steps, ic, q.Seed)
		})
		if err != nil {
			return Outcome{}, err
		}
		to := v.(tracedOutcome)
		w := wireOutcome(to.out, steps, ic, q.Seed, cached)
		w.Trace = to.events
		return w, nil
	}
	out, cached, err := p.measureCached(ctx, sc, steps, ic, q.Seed)
	if err != nil {
		return Outcome{}, err
	}
	return wireOutcome(out, steps, ic, q.Seed, cached), nil
}

// BadRequestError marks a query the client phrased wrong, as opposed
// to a simulation failure; the HTTP layer maps it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// GridQuery selects a scenario grid; an empty axis falls back to the
// corresponding DefaultSweep axis, so `{}` is the default sweep.
// RevModels is the one exception: empty means the default lifetime
// model only, not a sweep over every registered model.
type GridQuery struct {
	Model     string   `json:"model,omitempty"`
	Sizes     []int    `json:"sizes,omitempty"`
	GPUs      []string `json:"gpus,omitempty"`
	Regions   []string `json:"regions,omitempty"`
	Tiers     []string `json:"tiers,omitempty"`
	RevModels []string `json:"rev_models,omitempty"`
	// Providers lists provider worlds to sweep; empty means the
	// default (gce) only, like RevModels.
	Providers []string `json:"providers,omitempty"`
}

func (q GridQuery) spec() (experiments.SweepSpec, error) {
	spec := experiments.DefaultSweep()
	if q.Model != "" {
		m, err := model.ByName(q.Model)
		if err != nil {
			return experiments.SweepSpec{}, err
		}
		spec.Model = m
	}
	if len(q.Sizes) > 0 {
		for _, n := range q.Sizes {
			if n <= 0 {
				return experiments.SweepSpec{}, fmt.Errorf("planner: cluster size %d must be positive", n)
			}
			if n > maxWorkersPerScenario {
				return experiments.SweepSpec{}, fmt.Errorf("planner: cluster size %d exceeds the per-scenario limit of %d", n, maxWorkersPerScenario)
			}
		}
		spec.Sizes = q.Sizes
	}
	if len(q.GPUs) > 0 {
		spec.GPUs = spec.GPUs[:0]
		for _, name := range q.GPUs {
			g, err := model.ParseGPU(name)
			if err != nil {
				return experiments.SweepSpec{}, err
			}
			spec.GPUs = append(spec.GPUs, g)
		}
	}
	if len(q.Regions) > 0 {
		spec.Regions = spec.Regions[:0]
		for _, name := range q.Regions {
			r, err := cloud.ParseRegion(name)
			if err != nil {
				return experiments.SweepSpec{}, err
			}
			spec.Regions = append(spec.Regions, r)
		}
	}
	if len(q.Tiers) > 0 {
		spec.Tiers = spec.Tiers[:0]
		for _, name := range q.Tiers {
			tier, err := cloud.ParseTier(name)
			if err != nil {
				return experiments.SweepSpec{}, err
			}
			spec.Tiers = append(spec.Tiers, tier)
		}
	}
	if len(q.RevModels) > 0 {
		for _, name := range q.RevModels {
			if _, err := cloud.LookupLifetimeModel(name); err != nil {
				return experiments.SweepSpec{}, err
			}
		}
		spec.RevModels = q.RevModels
	}
	if len(q.Providers) > 0 {
		for _, name := range q.Providers {
			if _, err := cloud.LookupProvider(name); err != nil {
				return experiments.SweepSpec{}, err
			}
		}
		spec.Providers = q.Providers
	}
	return spec, nil
}

// SweepQuery declares an arbitrary scenario grid to measure.
type SweepQuery struct {
	GridQuery
	// StepsPerWorker scales the target with cluster size, like the
	// batch sweep experiment (0: DefaultSweep's value).
	StepsPerWorker     int64 `json:"steps_per_worker,omitempty"`
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	Seed               int64 `json:"seed"`
}

// Spec validates the query into a concrete sweep grid.
func (q SweepQuery) Spec() (experiments.SweepSpec, error) {
	spec, err := q.GridQuery.spec()
	if err != nil {
		return experiments.SweepSpec{}, err
	}
	if err := checkGridSize(len(spec.Scenarios())); err != nil {
		return experiments.SweepSpec{}, err
	}
	if q.StepsPerWorker > 0 {
		spec.StepsPerWorker = q.StepsPerWorker
	}
	if q.CheckpointInterval > 0 {
		spec.CheckpointInterval = q.CheckpointInterval
	}
	return spec, nil
}

// checkGridSize rejects grids a client phrased wrong: empty ones
// (every cell was an unoffered region/GPU combination — a 200 with
// zero results would be indistinguishable from success) and ones
// wider than the per-query bound.
func checkGridSize(n int) error {
	switch {
	case n == 0:
		return fmt.Errorf("planner: grid expands to no offered scenarios (check region/GPU availability via /v1/catalog)")
	case n > maxGridCells:
		return fmt.Errorf("planner: grid expands to %d scenarios, limit is %d", n, maxGridCells)
	}
	return nil
}

// SweepItem is one NDJSON line of a streamed sweep: the scenario's
// position in the grid plus its outcome or error.
type SweepItem struct {
	Index   int      `json:"index"`
	Total   int      `json:"total"`
	Outcome *Outcome `json:"outcome,omitempty"`
	Err     string   `json:"error,omitempty"`
}

// gridResult is one resolved cell handed to a measureGrid visitor.
type gridResult struct {
	out    experiments.ScenarioOutcome
	cached bool
	err    error
}

// measureGrid is the fan-out shared by Sweep and Cheapest: every
// scenario is dispatched onto the shared pool at once (cache and
// singleflight apply per cell), and visit sees cells incrementally in
// grid order — each as soon as it and every earlier cell have
// resolved, so cached cells surface immediately. A visit error or a
// canceled ctx returns early; the stragglers are canceled and waited
// out so no dispatch goroutine outlives the request.
func (p *Planner) measureGrid(ctx context.Context, scenarios []experiments.Scenario, stepsFor func(experiments.Scenario) int64, ic, seed int64, visit func(i int, sc experiments.Scenario, r gridResult) error) error {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // defers run LIFO: cancel first, then drain
	defer cancel()

	results := make([]chan gridResult, len(scenarios))
	for i := range results {
		results[i] = make(chan gridResult, 1)
	}
	for i, sc := range scenarios {
		i, sc := i, sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, cached, err := p.measureCached(ctx, sc, stepsFor(sc), ic, seed)
			results[i] <- gridResult{out, cached, err}
		}()
	}
	for i, sc := range scenarios {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		var r gridResult
		select {
		case r = <-results[i]:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		if err := visit(i, sc, r); err != nil {
			return err
		}
	}
	return nil
}

// Sweep measures every cell of the grid and emits outcomes
// incrementally in grid order. A scenario that fails becomes an item
// with Err set; the sweep continues. Sweep returns early if ctx is
// canceled or emit returns an error (a client that went away),
// canceling its undispatched scenarios.
func (p *Planner) Sweep(ctx context.Context, spec experiments.SweepSpec, seed int64, emit func(SweepItem) error) error {
	scenarios := spec.Scenarios()
	stepsFor := func(sc experiments.Scenario) int64 { return spec.StepsPerWorker * int64(sc.Workers) }
	return p.measureGrid(ctx, scenarios, stepsFor, spec.CheckpointInterval, seed,
		func(i int, sc experiments.Scenario, r gridResult) error {
			item := SweepItem{Index: i, Total: len(scenarios)}
			if r.err != nil {
				item.Err = r.err.Error()
			} else {
				o := wireOutcome(r.out, stepsFor(sc), spec.CheckpointInterval, seed, r.cached)
				item.Outcome = &o
			}
			return emit(item)
		})
}

// CheapestQuery asks the headline decision question: the cheapest
// configuration that trains the model for TargetSteps total steps
// within DeadlineHours. Unlike a sweep, every candidate runs the same
// total workload so costs are directly comparable.
type CheapestQuery struct {
	GridQuery
	// TargetSteps is the total training target Nw (required).
	TargetSteps int64 `json:"target_steps"`
	// CheckpointInterval is Ic in steps (0: 1000).
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// DeadlineHours filters candidates by measured training time;
	// ≤ 0 means no deadline.
	DeadlineHours float64 `json:"deadline_hours,omitempty"`
	Seed          int64   `json:"seed"`
}

// CheapestResult reports the winner and how the field looked.
type CheapestResult struct {
	Considered    int      `json:"considered"`
	Feasible      int      `json:"feasible"`
	Failed        int      `json:"failed"`
	DeadlineHours float64  `json:"deadline_hours,omitempty"`
	Best          *Outcome `json:"best,omitempty"`
}

// Cheapest measures every candidate in the grid (cached, coalesced,
// concurrent) and returns the cheapest one that makes the deadline.
// Ties break toward earlier grid order, so the answer is deterministic.
func (p *Planner) Cheapest(ctx context.Context, q CheapestQuery) (CheapestResult, error) {
	spec, err := q.GridQuery.spec()
	if err != nil {
		return CheapestResult{}, &BadRequestError{err}
	}
	if q.TargetSteps <= 0 {
		return CheapestResult{}, &BadRequestError{fmt.Errorf("planner: target_steps must be positive")}
	}
	ic, err := resolveCheckpointInterval(q.CheckpointInterval)
	if err != nil {
		return CheapestResult{}, &BadRequestError{err}
	}
	scenarios := spec.Scenarios()
	if err := checkGridSize(len(scenarios)); err != nil {
		return CheapestResult{}, &BadRequestError{err}
	}
	result := CheapestResult{Considered: len(scenarios), DeadlineHours: q.DeadlineHours}

	var best *Outcome
	err = p.measureGrid(ctx, scenarios, func(experiments.Scenario) int64 { return q.TargetSteps }, ic, q.Seed,
		func(i int, sc experiments.Scenario, r gridResult) error {
			if r.err != nil {
				// A candidate that ran and could not finish (the week-
				// of-virtual-time cap) is infeasible; a measurement
				// that never happened (cancellation, shutdown) must
				// fail the query rather than silently skew the answer.
				if interruptedError(r.err) {
					return r.err
				}
				result.Failed++
				return nil
			}
			if q.DeadlineHours > 0 && r.out.TrainingSeconds/3600 > q.DeadlineHours {
				return nil
			}
			result.Feasible++
			if best == nil || r.out.CostUSD < best.CostUSD {
				o := wireOutcome(r.out, q.TargetSteps, ic, q.Seed, r.cached)
				best = &o
			}
			return nil
		})
	if err != nil {
		return CheapestResult{}, err
	}
	result.Best = best
	return result, nil
}
