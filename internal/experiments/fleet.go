package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
)

// The fleet experiment compares admission policies on a shared,
// capacity-constrained transient pool: the multi-tenant reading of the
// paper's §V churn characterization. It is the first of three fleet
// comparisons (with providers and regret) declared through
// fleetComparison: every entrant faces the same reproducible job
// stream and the same provider seed inside each (regime, replication)
// cell, so rows within a cell differ only by market access and policy.

// fleetRegime is one contention level of a fleet comparison.
type fleetRegime struct {
	name string
	// slotsPerCell caps every offered (region, GPU) cell of the
	// transient pool; 0 means infinite.
	slotsPerCell int
	arrival      fleet.ArrivalProcess
}

// fleetRegimes spans no contention (the infinite pool every other
// experiment assumes), a tight pool where whole clusters fit one at a
// time per cell, and a scarce pool under bursty arrivals where
// 4-worker jobs cannot fit any transient cell at all — the regime that
// separates head-of-line FIFO from policies that backfill or buy
// on-demand.
func fleetRegimes() []fleetRegime {
	return []fleetRegime{
		{name: "ample", slotsPerCell: 0, arrival: fleet.ArrivalPoisson},
		{name: "tight", slotsPerCell: 4, arrival: fleet.ArrivalPoisson},
		{name: "scarce", slotsPerCell: 2, arrival: fleet.ArrivalBursty},
	}
}

// fleetWorkload is the job stream every entrant faces: ten jobs
// arriving at two per hour, sized from the catalog, over a two-day
// horizon so even slack deadlines resolve inside the run.
func fleetWorkload(arrival fleet.ArrivalProcess) fleet.WorkloadSpec {
	return fleet.WorkloadSpec{
		Jobs:               10,
		Arrival:            arrival,
		RatePerHour:        2,
		StepsPerWorker:     30000,
		CheckpointInterval: 1000,
	}
}

// fleetHorizonHours bounds each fleet run; jobs still waiting or
// running at the horizon count as deadline misses.
const fleetHorizonHours = 48

// fleetTitle is a fleet comparison's table title: what it compares,
// then the shared workload shape.
func fleetTitle(what string) string {
	w := fleetWorkload(fleet.ArrivalPoisson)
	return fmt.Sprintf("%s — %d jobs, %g/h, %d steps/worker, %dh horizon, mean of %d runs per cell",
		what, w.Jobs, w.RatePerHour, w.StepsPerWorker, fleetHorizonHours, replications)
}

// entrant is one column of a fleet comparison: a scheduler with access
// to one or more markets (none: the default market).
type entrant struct {
	name      string
	scheduler string
	providers []string
}

// schedulerEntrants enters each named scheduler in the default market,
// under its own name.
func schedulerEntrants(names ...string) []entrant {
	out := make([]entrant, len(names))
	for i, name := range names {
		out[i] = entrant{name: name, scheduler: name}
	}
	return out
}

// fleetRun is one (regime, entrant, replication) run of a fleet
// comparison.
type fleetRun struct {
	Regime, Entrant string
	Config          fleet.Config
	Result          *fleet.Result
}

// cell keys the run's row: one per (regime, entrant).
func (r fleetRun) cell() string { return r.Regime + "|" + r.Entrant }

func (r fleetRun) done() float64     { return float64(r.Result.Completed) }
func (r fleetRun) misses() float64   { return float64(r.Result.DeadlineMisses) }
func (r fleetRun) wait() float64     { return r.Result.MeanWaitHours }
func (r fleetRun) makespan() float64 { return r.Result.MakespanHours }
func (r fleetRun) cost() float64     { return r.Result.TotalCostUSD }
func (r fleetRun) revoked() float64  { return float64(r.Result.Revocations) }

// unionCapacity caps, at n slots, every (region, GPU) cell any of the
// named markets offers — one slot budget shared by every entrant of a
// regime, so single-market and cross-market fleets are compared under
// the same per-cell scarcity (a market simply cannot reach cells
// outside its own catalog).
func unionCapacity(n int, markets []string) cloud.Capacity {
	if n <= 0 {
		return nil
	}
	cap := cloud.Capacity{}
	for _, name := range markets {
		spec, err := cloud.LookupProvider(name)
		if err != nil {
			continue // validated at registration; unreachable for builtins
		}
		for _, g := range model.AllGPUs() {
			for _, r := range spec.OfferedRegions(g) {
				cap[cloud.PoolKey{Region: r, GPU: g}] = n
			}
		}
	}
	return cap
}

// fleetComparison declares a fleet comparison and finalizes the plan:
// one traced unit per (regime, entrant, replication), keyed
// <id>/<regime>/<entrant>/rep<k>, then reduce over the runs in
// declaration order. The workload and simulation seeds derive from
// the plan seed, id, regime and replication alone, and capacity caps
// every cell any of markets offers, so the entrants of one (regime,
// replication) cell face identical arrivals, cloud randomness and slot
// budget.
func (p *plan) fleetComparison(id string, markets []string, entrants []entrant, reduce func([]fleetRun) (Result, error)) *campaign.Plan {
	for _, regime := range fleetRegimes() {
		capacity := unionCapacity(regime.slotsPerCell, markets)
		for _, e := range entrants {
			for rep := 0; rep < replications; rep++ {
				cfg := fleet.Config{
					Workload:     fleetWorkload(regime.arrival),
					Scheduler:    e.scheduler,
					Providers:    e.providers,
					Capacity:     capacity,
					HorizonHours: fleetHorizonHours,
					WorkloadSeed: campaign.Derive(p.seed, uint64(rep), id+"/workload/"+regime.name),
				}
				simSeed := campaign.Derive(p.seed, uint64(rep), id+"/sim/"+regime.name)
				p.tunit(fmt.Sprintf("%s/%s/%s/rep%d", id, regime.name, e.name, rep), func(_ int64, rec *obs.Recorder) (any, error) {
					res, err := fleet.RunTraced(cfg, simSeed, rec)
					if err != nil {
						return nil, err
					}
					return fleetRun{Regime: regime.name, Entrant: e.name, Config: cfg, Result: res}, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) { return reduce(collect[fleetRun](outs)) })
}

func planFleet(p *plan) *campaign.Plan {
	entrants := schedulerEntrants("fifo", "cost-greedy", "deadline-aware")
	return p.fleetComparison("fleet", []string{cloud.DefaultProviderName}, entrants, func(runs []fleetRun) (Result, error) {
		return &FleetResult{Runs: runs}, nil
	})
}

// FleetResult renders the scheduler comparison.
type FleetResult struct {
	Runs []fleetRun
}

// String renders one row per (regime, scheduler), averaged over the
// replications, in unit declaration order.
func (r *FleetResult) String() string {
	t := newTable(fleetTitle("Fleet scheduler comparison"),
		"regime", "scheduler", "done", "misses", "wait (h)", "makespan (h)", "cost ($)", "revoked")
	for _, row := range rowsOf(r.Runs, fleetRun.cell) {
		run := row.runs[0]
		t.addRow(run.Regime, run.Entrant,
			fmt.Sprintf("%.1f", row.mean(fleetRun.done)),
			fmt.Sprintf("%.1f", row.mean(fleetRun.misses)),
			fmt.Sprintf("%.2f", row.mean(fleetRun.wait)),
			fmt.Sprintf("%.1f", row.mean(fleetRun.makespan)),
			fmt.Sprintf("%.2f", row.mean(fleetRun.cost)),
			fmt.Sprintf("%.1f", row.mean(fleetRun.revoked)))
	}
	t.addNote("regimes: ample = infinite pool, tight = 4 transient slots per offered cell (poisson arrivals), scarce = 2 slots per cell (bursty arrivals)")
	t.addNote("schedulers in one cell share the job stream and provider seed; rows differ only by policy")
	t.addNote("fifo = strict arrival order, cost-greedy = cheapest $/step across the queue, deadline-aware = EDF with on-demand fallback at the last responsible moment")
	return t.String()
}
