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
// paper's §V churn characterization. Every scheduler faces the same
// reproducible job stream and the same provider seed inside each
// (regime, replication) cell, so rows within a cell differ only by
// policy.

// fleetReplications is how many independent (workload, provider-seed)
// draws each (scheduler, regime) measurement averages.
const fleetReplications = 2

// fleetRegime is one contention level of the comparison.
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

// uniformCapacity caps every offered cell at n slots.
func uniformCapacity(n int) cloud.Capacity {
	if n <= 0 {
		return nil
	}
	cap := cloud.Capacity{}
	for _, g := range model.AllGPUs() {
		for _, r := range cloud.OfferedRegions(g) {
			cap[cloud.PoolKey{Region: r, GPU: g}] = n
		}
	}
	return cap
}

// fleetWorkload is the job stream every scheduler faces: ten jobs
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

// fleetEntry is one (scheduler, regime) replication.
type fleetEntry struct {
	Scheduler string
	Regime    string
	Result    *fleet.Result
}

func planFleet(p *plan) *campaign.Plan {
	schedulers := []string{"fifo", "cost-greedy", "deadline-aware"}
	for _, regime := range fleetRegimes() {
		for _, sched := range schedulers {
			regime, sched := regime, sched
			for rep := 0; rep < fleetReplications; rep++ {
				rep := rep
				// Workload and provider seeds are shared across the
				// schedulers of one (regime, rep) cell — policies are
				// compared on identical arrivals and identical cloud
				// randomness — so the unit derives them from the plan
				// seed itself rather than using the per-unit seed.
				cfg := fleet.Config{
					Workload:     fleetWorkload(regime.arrival),
					Scheduler:    sched,
					Capacity:     uniformCapacity(regime.slotsPerCell),
					HorizonHours: fleetHorizonHours,
					WorkloadSeed: campaign.Derive(p.seed, uint64(rep), "fleet/workload/"+regime.name),
				}
				simSeed := campaign.Derive(p.seed, uint64(rep), "fleet/sim/"+regime.name)
				p.tunit(fmt.Sprintf("fleet/%s/%s/rep%d", regime.name, sched, rep), func(_ int64, rec *obs.Recorder) (any, error) {
					res, err := fleet.RunTraced(cfg, simSeed, rec)
					if err != nil {
						return nil, err
					}
					return fleetEntry{Scheduler: sched, Regime: regime.name, Result: res}, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &FleetResult{Replications: fleetReplications}
		for _, o := range outs {
			res.Entries = append(res.Entries, o.(fleetEntry))
		}
		return res, nil
	})
}

// FleetResult renders the scheduler comparison.
type FleetResult struct {
	Replications int
	Entries      []fleetEntry
}

// String renders one row per (regime, scheduler), averaged over the
// replications, in unit declaration order.
func (r *FleetResult) String() string {
	w := fleetWorkload(fleet.ArrivalPoisson)
	t := newTable(fmt.Sprintf("Fleet scheduler comparison — %d jobs, %g/h, %d steps/worker, %dh horizon, mean of %d runs per cell",
		w.Jobs, w.RatePerHour, w.StepsPerWorker, fleetHorizonHours, r.Replications),
		"regime", "scheduler", "done", "misses", "wait (h)", "makespan (h)", "cost ($)", "revoked")
	type agg struct {
		n                                       int
		done, misses, wait, makespan, cost, rev float64
	}
	var order []string
	rows := make(map[string]*agg)
	labels := make(map[string][2]string)
	for _, e := range r.Entries {
		key := e.Regime + "|" + e.Scheduler
		a := rows[key]
		if a == nil {
			a = &agg{}
			rows[key] = a
			order = append(order, key)
			labels[key] = [2]string{e.Regime, e.Scheduler}
		}
		a.n++
		a.done += float64(e.Result.Completed)
		a.misses += float64(e.Result.DeadlineMisses)
		a.wait += e.Result.MeanWaitHours
		a.makespan += e.Result.MakespanHours
		a.cost += e.Result.TotalCostUSD
		a.rev += float64(e.Result.Revocations)
	}
	for _, key := range order {
		a := rows[key]
		n := float64(a.n)
		t.addRow(labels[key][0], labels[key][1],
			fmt.Sprintf("%.1f", a.done/n),
			fmt.Sprintf("%.1f", a.misses/n),
			fmt.Sprintf("%.2f", a.wait/n),
			fmt.Sprintf("%.1f", a.makespan/n),
			fmt.Sprintf("%.2f", a.cost/n),
			fmt.Sprintf("%.1f", a.rev/n))
	}
	t.addNote("regimes: ample = infinite pool, tight = 4 transient slots per offered cell (poisson arrivals), scarce = 2 slots per cell (bursty arrivals)")
	t.addNote("schedulers in one cell share the job stream and provider seed; rows differ only by policy")
	t.addNote("fifo = strict arrival order, cost-greedy = cheapest $/step across the queue, deadline-aware = EDF with on-demand fallback at the last responsible moment")
	return t.String()
}
