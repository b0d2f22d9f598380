package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/stats"
)

// The regret experiment scores every registered fleet scheduler
// against a clairvoyant oracle: for each job, the cheapest idealized
// transient placement that meets its deadline — perfect knowledge of
// speeds, no startup, no revocations, no contention. A policy's
// per-job regret is how many dollars it paid above that bound, plus a
// penalty when it missed a deadline the oracle could have met. Summed
// over the workload this is the canonical online-decision metric: it
// separates policies that merely complete jobs from policies whose
// placements were close to the best achievable, which is exactly the
// claim the predictive scheduler makes for its §III/§V-fed models.

// regretMissPenalty scales the oracle cost of a job whose deadline a
// policy missed but the oracle could meet — missing a feasible
// deadline must cost more than any plausible overspend, or a policy
// could buy regret down by abandoning jobs.
const regretMissPenalty = 2.0

// jobOracle is the clairvoyant bound for one job: the cheapest
// idealized transient bill over every offered GPU class that meets the
// deadline (Feasible), or the cheapest overall when none can.
type jobOracle struct {
	CostUSD  float64
	Feasible bool
}

// oracleFor scans the catalog for the job's clairvoyant best
// placement. Deadlines are generated at ≥1.5× the optimistic runtime
// on the requested GPU, so Feasible is the expected case; the
// infeasible fallback keeps the score total when a pathological spec
// slips through.
func oracleFor(spec fleet.JobSpec) jobOracle {
	var best jobOracle
	var cheapestAny float64
	found, foundAny := false, false
	for _, g := range model.AllGPUs() {
		if len(cloud.OfferedRegions(g)) == 0 {
			continue
		}
		hours := spec.OptimisticHours(g)
		cost := hours * (float64(spec.Workers)*model.HourlyPrice(g, true) + model.ParameterServerHourly)
		if !foundAny || cost < cheapestAny {
			cheapestAny, foundAny = cost, true
		}
		if hours > spec.DeadlineHours {
			continue
		}
		if !found || cost < best.CostUSD {
			best = jobOracle{CostUSD: cost, Feasible: true}
			found = true
		}
	}
	if found {
		return best
	}
	return jobOracle{CostUSD: cheapestAny}
}

// scoreRegret folds one fleet run against its workload's oracles.
// Per-job regret is max(0, realized − oracle) — a never-admitted job
// must not earn credit for spending nothing — plus the miss penalty
// when a feasible deadline was blown.
func scoreRegret(res *fleet.Result, specs []fleet.JobSpec) regretScore {
	var e regretScore
	oracles := make(map[int]jobOracle, len(specs))
	for _, spec := range specs {
		oracles[spec.ID] = oracleFor(spec)
	}
	for _, jr := range res.Jobs {
		o := oracles[jr.ID]
		e.Jobs++
		e.RealizedUSD += jr.CostUSD
		e.OracleUSD += o.CostUSD
		over := jr.CostUSD - o.CostUSD
		if over < 0 {
			over = 0
		}
		e.TotalRegret += over
		if !jr.DeadlineMet {
			e.Misses++
			if o.Feasible {
				e.TotalRegret += regretMissPenalty * o.CostUSD
			}
		}
	}
	return e
}

// regretScore is one fleet run's score against the oracle.
type regretScore struct {
	Jobs        int
	Misses      int
	TotalRegret float64
	RealizedUSD float64
	OracleUSD   float64
}

// regretRun is one fleet run with its score.
type regretRun struct {
	fleetRun
	regretScore
}

func (r regretRun) regret() float64 { return r.TotalRegret }

func planRegret(p *plan) *campaign.Plan {
	entrants := schedulerEntrants(fleet.SchedulerNames()...)
	return p.fleetComparison("regret", []string{cloud.DefaultProviderName}, entrants, func(runs []fleetRun) (Result, error) {
		res := &RegretResult{}
		for _, run := range runs {
			// Score against the run's own job stream, regenerated from
			// its config exactly as the fleet generated it.
			specs, err := run.Config.Workload.Generate(stats.NewRng(run.Config.WorkloadSeed))
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, regretRun{run, scoreRegret(run.Result, specs)})
		}
		return res, nil
	})
}

// RegretResult renders the scheduler-vs-oracle comparison.
type RegretResult struct {
	Runs []regretRun
}

// RegimesWherePredictiveBeats lists regimes where the predictive
// scheduler's mean total regret is strictly below every named
// baseline's — the experiment's headline claim, pinned by a test at
// the golden seed.
func (r *RegretResult) RegimesWherePredictiveBeats(baselines ...string) []string {
	regret := map[string]float64{}
	for _, row := range rowsOf(r.Runs, regretRun.cell) {
		regret[row.runs[0].cell()] = row.mean(regretRun.regret)
	}
	var wins []string
	for _, regime := range fleetRegimes() {
		p, won := regret[regime.name+"|predictive"]
		for _, b := range baselines {
			if a, ok := regret[regime.name+"|"+b]; !ok || p >= a {
				won = false
			}
		}
		if won {
			wins = append(wins, regime.name)
		}
	}
	return wins
}

// String renders one row per (regime, scheduler), averaged over the
// replications, in unit declaration order.
func (r *RegretResult) String() string {
	t := newTable(fleetTitle("Scheduler regret vs. clairvoyant oracle"),
		"regime", "scheduler", "regret ($)", "$/job", "misses", "realized ($)", "oracle ($)")
	for _, row := range rowsOf(r.Runs, regretRun.cell) {
		run := row.runs[0]
		regret := row.mean(regretRun.regret)
		t.addRow(run.Regime, run.Entrant,
			fmt.Sprintf("%.2f", regret),
			fmt.Sprintf("%.2f", regret/row.mean(func(e regretRun) float64 { return float64(e.Jobs) })),
			fmt.Sprintf("%.1f", row.mean(func(e regretRun) float64 { return float64(e.Misses) })),
			fmt.Sprintf("%.2f", row.mean(func(e regretRun) float64 { return e.RealizedUSD })),
			fmt.Sprintf("%.2f", row.mean(func(e regretRun) float64 { return e.OracleUSD })))
	}
	t.addNote("oracle: per job, the cheapest idealized transient bill (perfect speed knowledge, no startup/revocations/contention) over GPU classes meeting its deadline")
	t.addNote("per-job regret = max(0, realized − oracle) + %g × oracle when a feasible deadline was missed; never-admitted jobs earn no credit for spending nothing", regretMissPenalty)
	t.addNote("regimes and per-cell seed sharing as in the fleet experiment; schedulers differ only by policy")
	t.addNote("predictive = placements scored by predicted cost-to-deadline, models refit from the run's own history (analytic Eq. 4/5 until enough completions)")
	return t.String()
}
