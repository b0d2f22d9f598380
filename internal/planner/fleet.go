package planner

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// maxFleetJobs bounds one fleet query's workload; a fleet run is one
// unit (one kernel), so its cost scales with jobs × steps and a
// runaway count would pin a pool worker far longer than any grid cell.
const maxFleetJobs = 1024

// FleetQuery declares one fleet simulation over the wire: a workload,
// a capacity-constrained pool, and a scheduler to run it under.
type FleetQuery struct {
	// Scheduler names the admission policy — a name from the
	// catalog's schedulers list. Empty means fifo.
	Scheduler string `json:"scheduler,omitempty"`
	// Jobs is how many jobs arrive (required).
	Jobs int `json:"jobs"`
	// Arrival is the inter-arrival law: "poisson" (default) or
	// "bursty".
	Arrival string `json:"arrival,omitempty"`
	// RatePerHour is the mean arrival rate (required).
	RatePerHour float64 `json:"rate_per_hour"`
	// StepsPerWorker scales each job's training target with its
	// cluster size (required).
	StepsPerWorker int64 `json:"steps_per_worker"`
	// CheckpointInterval is Ic in steps (0: 1000).
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// Capacity caps transient pool cells, keyed "region/GPU" (e.g.
	// "us-west1/V100": 4). Empty means an infinite pool.
	Capacity map[string]int `json:"capacity,omitempty"`
	// RevModel selects the revocation regime (catalog name; empty:
	// each provider's own default).
	RevModel string `json:"rev_model,omitempty"`
	// Providers lists the markets the fleet schedules across (catalog
	// provider names). Empty means the default single market; the
	// cross-provider "arbitrage" scheduler wants two or more.
	Providers []string `json:"providers,omitempty"`
	// Elastic names a cluster membership policy (catalog
	// elastic_policies name) applied to every job session. Empty (or
	// "static") holds each job's launch shape.
	Elastic string `json:"elastic,omitempty"`
	// HorizonHours bounds the run (0: a week).
	HorizonHours float64 `json:"horizon_hours,omitempty"`
	// WorkloadSeed seeds job generation independently of Seed (0:
	// derived from Seed), letting clients hold the job stream fixed
	// while varying cloud randomness.
	WorkloadSeed int64 `json:"workload_seed,omitempty"`
	Seed         int64 `json:"seed"`
	// Trace opts in to the sim-plane event trace: one trace line per
	// event streams between the job lines and the summary. Tracing
	// never perturbs the simulation — traced and untraced fleet
	// results are numerically identical; traced results are cached
	// separately.
	Trace bool `json:"trace,omitempty"`
}

// config validates the query into a fleet config.
func (q FleetQuery) config() (fleet.Config, error) {
	if _, err := fleet.LookupScheduler(q.Scheduler); err != nil {
		return fleet.Config{}, err
	}
	arrival, err := fleet.ParseArrival(q.Arrival)
	if err != nil {
		return fleet.Config{}, err
	}
	if q.Jobs > maxFleetJobs {
		return fleet.Config{}, fmt.Errorf("planner: %d jobs exceeds the per-query limit of %d", q.Jobs, maxFleetJobs)
	}
	capacity, err := fleet.CapacityFromCells(q.Capacity)
	if err != nil {
		return fleet.Config{}, err
	}
	ic, err := resolveCheckpointInterval(q.CheckpointInterval)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Workload: fleet.WorkloadSpec{
			Jobs:               q.Jobs,
			Arrival:            arrival,
			RatePerHour:        q.RatePerHour,
			StepsPerWorker:     q.StepsPerWorker,
			CheckpointInterval: ic,
		},
		Scheduler:    q.Scheduler,
		RevModel:     q.RevModel,
		Providers:    q.Providers,
		Elastic:      q.Elastic,
		Capacity:     capacity,
		HorizonHours: q.HorizonHours,
		WorkloadSeed: q.WorkloadSeed,
	}
	// Validate the rest (workload bounds, horizon, rev model) exactly
	// as Run would, so bad queries fail as 400s before dispatch.
	if err := cfg.Validate(); err != nil {
		return fleet.Config{}, err
	}
	return cfg, nil
}

// FleetItem is one NDJSON line of a fleet response: one job's outcome,
// one sim-plane trace event (traced queries only), or the trailing
// summary.
type FleetItem struct {
	// Job is one per-job line; nil on trace and summary lines.
	Job *fleet.JobResult `json:"job,omitempty"`
	// Trace is one sim-plane event, scoped by the job that emitted it;
	// trace lines stream between the job lines and the summary when
	// the query set trace.
	Trace *obs.Event `json:"trace,omitempty"`
	// Summary is the final aggregate line: the fleet result with its
	// per-job list stripped (the jobs were already streamed).
	Summary *FleetSummary `json:"summary,omitempty"`
}

// FleetSummary is the aggregate trailer of a fleet response.
type FleetSummary struct {
	Scheduler      string   `json:"scheduler"`
	Providers      []string `json:"providers"`
	RevModel       string   `json:"rev_model"`
	Capacity       string   `json:"capacity"`
	Key            string   `json:"key"`
	Seed           int64    `json:"seed"`
	Jobs           int      `json:"jobs"`
	Completed      int      `json:"completed"`
	DeadlineMisses int      `json:"deadline_misses"`
	OverBudgetJobs int      `json:"over_budget_jobs"`
	MakespanHours  float64  `json:"makespan_hours"`
	MeanWaitHours  float64  `json:"mean_wait_hours"`
	TotalCostUSD   float64  `json:"total_cost_usd"`
	Revocations    int      `json:"revocations"`
	Cached         bool     `json:"cached"`
}

// Fleet answers a fleet query (cached, coalesced) and emits the
// per-job results in arrival order followed by the aggregate summary.
// A repeated query is a cache lookup: the simulation runs at most once
// per (canonical key, seed).
func (p *Planner) Fleet(ctx context.Context, q FleetQuery, emit func(FleetItem) error) error {
	cfg, err := q.config()
	if err != nil {
		return &BadRequestError{err}
	}
	// The fleet's unit key, cfg.Key(), starts "fleet|", keeping its
	// cache lines disjoint from single-scenario ones.
	s, cached, err := p.simulate(ctx, cfg.Key(), q.Seed, q.Trace,
		func(unitSeed int64, rec *obs.Recorder) (any, error) {
			return p.runFleet(cfg, unitSeed, rec)
		})
	if err != nil {
		return err
	}
	res, events := s.value.(*fleet.Result), s.events
	for i := range res.Jobs {
		if err := emit(FleetItem{Job: &res.Jobs[i]}); err != nil {
			return err
		}
	}
	for i := range events {
		if err := emit(FleetItem{Trace: &events[i]}); err != nil {
			return err
		}
	}
	return emit(FleetItem{Summary: &FleetSummary{
		Scheduler:      res.Scheduler,
		Providers:      res.Providers,
		RevModel:       res.RevModel,
		Capacity:       res.Capacity,
		Key:            cfg.Key(),
		Seed:           q.Seed,
		Jobs:           len(res.Jobs),
		Completed:      res.Completed,
		DeadlineMisses: res.DeadlineMisses,
		OverBudgetJobs: res.OverBudgetJobs,
		MakespanHours:  res.MakespanHours,
		MeanWaitHours:  res.MeanWaitHours,
		TotalCostUSD:   res.TotalCostUSD,
		Revocations:    res.Revocations,
		Cached:         cached,
	}})
}
