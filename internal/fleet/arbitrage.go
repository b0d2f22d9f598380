package fleet

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/model"
)

// arbitrageScheduler is the cross-provider policy: earliest-deadline-
// first over the queue, but every queued job is quoted against every
// market of the fleet — catalog, remaining capacity, price book, and
// the churn signal — and placed in whichever market is currently
// cheap and calm. Queued jobs therefore migrate between markets for
// free as conditions change: a revocation wave in one market (churn)
// or an exhausted pool reroutes the next admission to another, while
// a job already running rides out its market (its session's
// replacements stay where its checkpoints are). Candidate ranking:
// placements that optimistically meet the job's deadline beat ones
// that don't; calm regions beat churning ones; then lowest dollars
// per step from the market's own book. Ties break by market order,
// then GPU catalog order, so the pick is deterministic. Like
// deadline-aware, a job that fits nowhere is started on-demand in the
// market quoting the cheapest on-demand price once waiting longer
// would blow its deadline.
type arbitrageScheduler struct{}

func (arbitrageScheduler) Name() string { return "arbitrage" }

// quote is one admissible (market, GPU, region) candidate for a job.
type quote struct {
	pl             Placement
	meetsDeadline  bool
	churning       bool
	dollarsPerStep float64
}

// better ranks quotes: deadline feasibility, then calm, then price.
func (q quote) better(than quote) bool {
	if q.meetsDeadline != than.meetsDeadline {
		return q.meetsDeadline
	}
	if q.churning != than.churning {
		return !q.churning
	}
	return q.dollarsPerStep < than.dollarsPerStep
}

// calmRegionWithRoom is the market's first region, in Table V order,
// that offers g and can hold the cluster, preferring calm regions: a
// churning region is returned only when no calm one has room.
func calmRegionWithRoom(v View, market string, g model.GPU, workers int) (r cloud.Region, churning, ok bool) {
	r, rank, ok := regionWithRoom(v, market, g, workers, func(cand cloud.Region) float64 {
		if v.Churning(market, cand) {
			return 1
		}
		return 0
	})
	return r, rank > 0, ok
}

// bestQuote surveys every (market, GPU) pair with room for the job and
// returns the best transient candidate.
func bestQuote(v View, job JobSpec, now float64) (quote, bool) {
	var best quote
	found := false
	for _, market := range v.Markets() {
		spec := v.Spec(market)
		if spec == nil {
			continue
		}
		for _, g := range model.AllGPUs() {
			r, churning, ok := calmRegionWithRoom(v, market, g, job.Workers)
			if !ok {
				continue
			}
			q := quote{
				pl:             Placement{Region: r, GPU: g, Tier: cloud.Transient, Market: market},
				meetsDeadline:  now+job.OptimisticHours(g) <= job.DeadlineAtHours(),
				churning:       churning,
				dollarsPerStep: dollarsPerStep(spec, job, g),
			}
			if !found || q.better(best) {
				best, found = q, true
			}
		}
	}
	return best, found
}

// cheapestOnDemand finds the market quoting the lowest on-demand price
// for the job's requested GPU class, placed in that market's first
// offering region (on-demand pools are uncapped).
func cheapestOnDemand(v View, job JobSpec) (Placement, bool) {
	var best Placement
	bestPrice, found := 0.0, false
	for _, market := range v.Markets() {
		spec := v.Spec(market)
		if spec == nil {
			continue
		}
		regions := spec.OfferedRegions(job.GPU)
		if len(regions) == 0 {
			continue
		}
		price := spec.GPUHourly(job.GPU, cloud.OnDemand)
		if !found || price < bestPrice {
			best = Placement{Region: regions[0], GPU: job.GPU, Tier: cloud.OnDemand, Market: market}
			bestPrice, found = price, true
		}
	}
	return best, found
}

func (arbitrageScheduler) Pick(queue []*Job, v View) (int, Placement, bool) {
	order := make([]int, len(queue))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return queue[order[a]].Spec.DeadlineAtHours() < queue[order[b]].Spec.DeadlineAtHours()
	})
	now := v.NowHours()
	for _, idx := range order {
		spec := queue[idx].Spec
		if q, ok := bestQuote(v, spec, now); ok {
			return idx, q.pl, true
		}
		// No transient room in any market: buy on-demand wherever it is
		// cheapest once this job reaches its last responsible moment.
		remaining := spec.DeadlineAtHours() - now
		if remaining <= spec.OptimisticHours(spec.GPU)*onDemandSlackFactor {
			if pl, ok := cheapestOnDemand(v, spec); ok {
				return idx, pl, true
			}
		}
	}
	return 0, Placement{}, false
}

// NextWakeHours implements Waker exactly as deadline-aware does: the
// earliest queued job's last responsible moment still ahead, so the
// on-demand escape hatch fires even on a quiet queue.
func (arbitrageScheduler) NextWakeHours(queue []*Job, v View) (float64, bool) {
	return deadlineAwareScheduler{}.NextWakeHours(queue, v)
}
