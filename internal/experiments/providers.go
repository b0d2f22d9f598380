package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
)

// The providers experiment asks the cross-market question the paper's
// single-cloud characterization sets up: once several transient
// markets with different price books and revocation climates exist,
// does a fleet that arbitrages across them beat the best fleet locked
// into any one of them? Each single-market fleet runs the strongest
// single-market policy (deadline-aware); the cross-provider fleet runs
// the arbitrage scheduler over all three markets. Every fleet in one
// (regime, replication) cell faces the identical job stream and the
// identical per-cell slot budget, so rows differ only by market access
// and policy.

// providerReplications is how many independent (workload, provider-
// seed) draws each (fleet, regime) measurement averages.
const providerReplications = 2

// providerMarkets are the registered provider worlds the experiment
// spans; arbitrage schedules across all of them.
func providerMarkets() []string { return []string{"gce", "aws", "serverless-cpu"} }

// providerFleet is one column of the comparison: a scheduler given
// access to one or more markets.
type providerFleet struct {
	name      string
	scheduler string
	providers []string
}

func providerFleets() []providerFleet {
	return []providerFleet{
		{name: "gce-only", scheduler: "deadline-aware", providers: []string{"gce"}},
		{name: "aws-only", scheduler: "deadline-aware", providers: []string{"aws"}},
		{name: "serverless-only", scheduler: "deadline-aware", providers: []string{"serverless-cpu"}},
		{name: "arbitrage", scheduler: "arbitrage", providers: providerMarkets()},
	}
}

// unionCapacity caps, at n slots, every (region, GPU) cell any of the
// named markets offers — one slot budget shared by every fleet of a
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

// providerEntry is one (fleet, regime) replication.
type providerEntry struct {
	Fleet  string
	Regime string
	Result *fleet.Result
}

func planProviders(p *plan) *campaign.Plan {
	for _, regime := range fleetRegimes() {
		capacity := unionCapacity(regime.slotsPerCell, providerMarkets())
		for _, fl := range providerFleets() {
			regime, fl := regime, fl
			for rep := 0; rep < providerReplications; rep++ {
				rep := rep
				// Workload and simulation seeds are shared across the
				// fleets of one (regime, rep) cell, like the fleet
				// experiment: market access and policy are the only
				// degrees of freedom.
				cfg := fleet.Config{
					Workload:     fleetWorkload(regime.arrival),
					Scheduler:    fl.scheduler,
					Providers:    fl.providers,
					Capacity:     capacity,
					HorizonHours: fleetHorizonHours,
					WorkloadSeed: campaign.Derive(p.seed, uint64(rep), "providers/workload/"+regime.name),
				}
				simSeed := campaign.Derive(p.seed, uint64(rep), "providers/sim/"+regime.name)
				p.tunit(fmt.Sprintf("providers/%s/%s/rep%d", regime.name, fl.name, rep), func(_ int64, rec *obs.Recorder) (any, error) {
					res, err := fleet.RunTraced(cfg, simSeed, rec)
					if err != nil {
						return nil, err
					}
					return providerEntry{Fleet: fl.name, Regime: regime.name, Result: res}, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &ProvidersResult{Replications: providerReplications}
		for _, o := range outs {
			res.Entries = append(res.Entries, o.(providerEntry))
		}
		return res, nil
	})
}

// ProvidersResult renders the cross-provider comparison.
type ProvidersResult struct {
	Replications int
	Entries      []providerEntry
}

// providerAgg is one (regime, fleet) row averaged over replications.
type providerAgg struct {
	regime, fleet                 string
	n                             int
	done, misses, wait, cost, rev float64
}

// aggregate folds the entries into rows in declaration order.
func (r *ProvidersResult) aggregate() []*providerAgg {
	var order []*providerAgg
	rows := make(map[string]*providerAgg)
	for _, e := range r.Entries {
		key := e.Regime + "|" + e.Fleet
		a := rows[key]
		if a == nil {
			a = &providerAgg{regime: e.Regime, fleet: e.Fleet}
			rows[key] = a
			order = append(order, a)
		}
		a.n++
		a.done += float64(e.Result.Completed)
		a.misses += float64(e.Result.DeadlineMisses)
		a.wait += e.Result.MeanWaitHours
		a.cost += e.Result.TotalCostUSD
		a.rev += float64(e.Result.Revocations)
	}
	return order
}

// ArbitrageWins lists the regimes where the arbitrage fleet beats the
// best single-market fleet on deadline misses, or matches it on misses
// while costing strictly less — the claim the providers golden pins.
func (r *ProvidersResult) ArbitrageWins() []string {
	type cell struct{ arb, best *providerAgg }
	regimes := make(map[string]*cell)
	var order []string
	for _, a := range r.aggregate() {
		c := regimes[a.regime]
		if c == nil {
			c = &cell{}
			regimes[a.regime] = c
			order = append(order, a.regime)
		}
		if a.fleet == "arbitrage" {
			c.arb = a
			continue
		}
		// Best single market: fewest misses, then lowest cost.
		if c.best == nil || a.misses < c.best.misses ||
			(a.misses == c.best.misses && a.cost < c.best.cost) {
			c.best = a
		}
	}
	var wins []string
	for _, regime := range order {
		c := regimes[regime]
		if c.arb == nil || c.best == nil {
			continue
		}
		if c.arb.misses < c.best.misses ||
			(c.arb.misses == c.best.misses && c.arb.cost < c.best.cost) {
			wins = append(wins, regime)
		}
	}
	return wins
}

// String renders one row per (regime, fleet), averaged over the
// replications, in unit declaration order.
func (r *ProvidersResult) String() string {
	w := fleetWorkload(fleet.ArrivalPoisson)
	t := newTable(fmt.Sprintf("Cross-provider fleet comparison — %d jobs, %g/h, %d steps/worker, %dh horizon, mean of %d runs per cell",
		w.Jobs, w.RatePerHour, w.StepsPerWorker, fleetHorizonHours, r.Replications),
		"regime", "fleet", "done", "misses", "wait (h)", "cost ($)", "revoked")
	for _, a := range r.aggregate() {
		n := float64(a.n)
		t.addRow(a.regime, a.fleet,
			fmt.Sprintf("%.1f", a.done/n),
			fmt.Sprintf("%.1f", a.misses/n),
			fmt.Sprintf("%.2f", a.wait/n),
			fmt.Sprintf("%.2f", a.cost/n),
			fmt.Sprintf("%.1f", a.rev/n))
	}
	t.addNote("regimes: ample = infinite pool, tight = 4 transient slots per offered cell (poisson arrivals), scarce = 2 slots per cell (bursty arrivals)")
	t.addNote("fleets in one cell share the job stream, slot budget, and seeds; single-market fleets run deadline-aware, arbitrage sees gce+aws+serverless-cpu")
	t.addNote("markets: gce = Table V calibration, aws = pricier book under a calmer (refit weibull) climate, serverless-cpu = per-invocation pricing with no revocations")
	if wins := r.ArbitrageWins(); len(wins) > 0 {
		t.addNote("arbitrage beats the best single market (fewer misses, or equal misses at lower cost) in: %s", joinWords(wins))
	} else {
		t.addNote("arbitrage beats the best single market in: none")
	}
	return t.String()
}

// joinWords renders a short list for notes.
func joinWords(words []string) string {
	out := ""
	for i, w := range words {
		if i > 0 {
			out += ", "
		}
		out += w
	}
	return out
}
