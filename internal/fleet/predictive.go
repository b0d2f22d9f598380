package fleet

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/model"
)

// predictiveScheduler closes the paper's prediction loop inside the
// fleet: every placement decision is scored by a predicted
// cost-to-deadline, and the predictions themselves improve as the run
// accumulates history. Before enough completions exist the policy
// leans on core.CalibratedPredictor, the analytic Eq. 4/5 predictor
// pland's /v1/estimate answers from; once a (market, GPU, tier) cell
// has seen minRateSamples finished jobs, a regression fit from the
// run's own observations takes over — linear on log-complexity first,
// the paper-grid SVR (§III-B) once svrRateSamples accumulate.
//
// Policy: earliest-deadline-first over the queue. Each job is quoted
// on every (market, GPU) transient cell with room — region chosen by
// lowest observed revocation rate — and takes the cheapest cell whose
// predicted finish meets its deadline. A job with no feasible
// transient quote waits; once waiting longer than its predicted
// on-demand runtime (with the usual slack factor) would blow the
// deadline, it buys the cheapest on-demand placement predicted to
// meet it — or, past all hope, the one that finishes soonest.
type predictiveScheduler struct{}

func (predictiveScheduler) Name() string { return "predictive" }

// predictHours predicts a job's request-to-finish time in hours on
// (market, GPU, region, tier): observed startup plus a history-fit
// compute estimate when the history qualifies, the analytic Eq. 4/5
// estimate otherwise, the idealized speed curve as the last resort.
func predictHours(hist *History, market string, job JobSpec, g model.GPU, r cloud.Region, tier cloud.Tier) float64 {
	startup := core.ProvisionPriorSeconds / 3600
	if h, ok := hist.StartupHours(market, tier); ok {
		startup = h
	}
	if rate, ok := hist.PerWorkerRate(market, g, tier, job.Model.GFLOPs); ok && rate > 0 {
		// The observed rate is end-to-end effective (checkpoint stalls
		// and recoveries included), so no separate overhead terms.
		return startup + float64(job.Steps)/(rate*float64(job.Workers)*3600)
	}
	if pred, err := core.CalibratedPredictor(job.Model); err == nil {
		placements := make([]core.Placement, job.Workers)
		for i := range placements {
			placements[i] = core.Placement{GPU: g, Region: r.String(), Transient: tier == cloud.Transient}
		}
		plan := core.Plan{
			Model:              job.Model,
			Workers:            placements,
			ParameterServers:   1,
			TargetSteps:        job.Steps,
			CheckpointInterval: job.CheckpointInterval,
		}
		est, eerr := pred.Estimate(plan)
		if eerr != nil && tier == cloud.Transient {
			// A corner outside the default catalog (another market's
			// region) has no fitted CDF; drop the revocation term
			// rather than the whole estimate.
			pred.Revocation = nil
			est, eerr = pred.Estimate(plan)
		}
		if eerr == nil {
			return startup + est.TotalSeconds/3600
		}
	}
	return startup + job.OptimisticHours(g)
}

// calmestRegionWithRoom scans the market's regions for one offering g
// with room for the cluster, preferring the lowest observed revocation
// rate (unobserved regions count as calm — the optimistic prior);
// ties break in Table V order.
func calmestRegionWithRoom(mv MarketView, hist *History, market string, g model.GPU, workers int) (cloud.Region, bool) {
	spec := mv.MarketSpec(market)
	if spec == nil {
		return 0, false
	}
	var best cloud.Region
	bestRate, found := 0.0, false
	for _, r := range cloud.AllRegions() {
		if !spec.Offers(r, g) {
			continue
		}
		free := mv.MarketAvailable(market, r, g)
		if free >= 0 && free < workers {
			continue
		}
		rate, _ := hist.RevocationsPerHour(market, r)
		if !found || rate < bestRate {
			best, bestRate, found = r, rate, true
		}
	}
	return best, found
}

// predictedQuote is one scored candidate placement.
type predictedQuote struct {
	pl       Placement
	hours    float64
	cost     float64
	feasible bool
}

// bestPredictedTransient quotes every (market, GPU) transient cell
// with room and returns the cheapest whose predicted finish meets the
// job's deadline. Iteration order (market order, then GPU catalog
// order) with strict improvement keeps ties deterministic.
func bestPredictedTransient(mv MarketView, hist *History, job JobSpec, now float64) (predictedQuote, bool) {
	var best predictedQuote
	found := false
	for _, market := range mv.Markets() {
		spec := mv.MarketSpec(market)
		if spec == nil {
			continue
		}
		for _, g := range model.AllGPUs() {
			r, ok := calmestRegionWithRoom(mv, hist, market, g, job.Workers)
			if !ok {
				continue
			}
			hours := predictHours(hist, market, job, g, r, cloud.Transient)
			if now+hours > job.DeadlineAtHours() {
				continue
			}
			hourly := float64(job.Workers)*spec.GPUHourly(g, cloud.Transient) + spec.PSHourly
			q := predictedQuote{
				pl:       Placement{Region: r, GPU: g, Tier: cloud.Transient, Market: market},
				hours:    hours,
				cost:     hours * hourly,
				feasible: true,
			}
			if !found || q.cost < best.cost {
				best, found = q, true
			}
		}
	}
	return best, found
}

// bestPredictedOnDemand quotes on-demand across every market and GPU
// class (pools are uncapped, so the first offering region always has
// room): the cheapest placement predicted to meet the deadline, or —
// when none can — the one predicted to finish soonest.
func bestPredictedOnDemand(mv MarketView, hist *History, job JobSpec, now float64) (predictedQuote, bool) {
	var best predictedQuote
	found := false
	for _, market := range mv.Markets() {
		spec := mv.MarketSpec(market)
		if spec == nil {
			continue
		}
		for _, g := range model.AllGPUs() {
			regions := spec.OfferedRegions(g)
			if len(regions) == 0 {
				continue
			}
			r := regions[0]
			hours := predictHours(hist, market, job, g, r, cloud.OnDemand)
			hourly := float64(job.Workers)*spec.GPUHourly(g, cloud.OnDemand) + spec.PSHourly
			q := predictedQuote{
				pl:       Placement{Region: r, GPU: g, Tier: cloud.OnDemand, Market: market},
				hours:    hours,
				cost:     hours * hourly,
				feasible: now+hours <= job.DeadlineAtHours(),
			}
			if !found || q.betterOnDemand(best) {
				best, found = q, true
			}
		}
	}
	return best, found
}

// betterOnDemand ranks on-demand quotes: feasible beats infeasible;
// among feasible the cheaper wins; among infeasible the sooner finish
// (least late) wins.
func (q predictedQuote) betterOnDemand(than predictedQuote) bool {
	if q.feasible != than.feasible {
		return q.feasible
	}
	if q.feasible {
		return q.cost < than.cost
	}
	return q.hours < than.hours
}

func (predictiveScheduler) Pick(queue []*Job, pool PoolView) (int, Placement, bool) {
	mv := marketsOf(pool)
	hist := mv.Observed()
	order := make([]int, len(queue))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return queue[order[a]].Spec.DeadlineAtHours() < queue[order[b]].Spec.DeadlineAtHours()
	})
	now := pool.NowHours()
	for _, idx := range order {
		spec := queue[idx].Spec
		if q, ok := bestPredictedTransient(mv, hist, spec, now); ok {
			return idx, q.pl, true
		}
		// No transient placement is predicted to make the deadline:
		// hold out for freed capacity until waiting longer than the
		// predicted on-demand runtime (with slack) would blow it, then
		// buy the best on-demand quote.
		if q, ok := bestPredictedOnDemand(mv, hist, spec, now); ok {
			if spec.DeadlineAtHours()-now <= q.hours*onDemandSlackFactor {
				return idx, q.pl, true
			}
		}
	}
	return 0, Placement{}, false
}

// NextWakeHours implements Waker: the earliest predicted last
// responsible moment — deadline minus slack-padded predicted on-demand
// runtime — still ahead among queued jobs, so the on-demand escape
// hatch fires even on a quiet queue, mirroring deadline-aware but on
// predicted rather than idealized runtimes.
func (predictiveScheduler) NextWakeHours(queue []*Job, pool PoolView) (float64, bool) {
	mv := marketsOf(pool)
	hist := mv.Observed()
	now := pool.NowHours()
	best, found := 0.0, false
	for _, job := range queue {
		q, ok := bestPredictedOnDemand(mv, hist, job.Spec, now)
		if !ok {
			continue // no market sells anything this job could run on
		}
		at := job.Spec.DeadlineAtHours() - q.hours*onDemandSlackFactor
		if at <= now {
			continue // already actionable; Pick handles it this pass
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}
