package fleet

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/registry"
)

// Placement is a scheduler's answer for one job: which cell of the
// cloud to run its whole cluster in. Fleet jobs are homogeneous (one
// GPU type, one region), matching the paper's own campaign sessions.
type Placement struct {
	Region cloud.Region
	GPU    model.GPU
	Tier   cloud.Tier
	// Market names the provider the job runs in (one of the View's
	// Markets). Empty means the fleet's first (default) market, so
	// single-market schedulers never need to set it and single-market
	// results render exactly as before the provider axis existed.
	Market string
}

// Label renders the placement for job results.
func (p Placement) Label() string {
	if p.Market != "" {
		return fmt.Sprintf("%s:%s/%s %s", p.Market, p.Region, p.GPU, p.Tier)
	}
	return fmt.Sprintf("%s/%s %s", p.Region, p.GPU, p.Tier)
}

// View is the scheduler's read-only window onto the fleet: the clock,
// every market's catalog and price book, remaining capacity and churn,
// and the run's own measurement history. Market "" names the first
// (default) market, the one single-market policies place in.
type View interface {
	// NowHours is the current virtual time.
	NowHours() float64
	// Markets lists the fleet's markets in configuration order; the
	// first is the default market. Callers must not modify the slice.
	Markets() []string
	// Spec returns the market's registered spec (catalog via Offers,
	// price book via GPUHourly and PSHourly); nil for unknown names.
	// Schedulers must not place jobs in cells the market does not
	// offer.
	Spec(market string) *cloud.ProviderSpec
	// Available returns how many transient servers the market's
	// (region, GPU) cell can still accept, or -1 when the cell is
	// unconstrained.
	Available(market string, r cloud.Region, g model.GPU) int
	// Churning reports whether the market's region saw a revocation
	// within the churn window (Fig. 7's regime) — the calm signal
	// cross-market policies trade on.
	Churning(market string, r cloud.Region) bool
	// Observed is the run's own measurement history — completed-job
	// step rates, startup times, revocation exposure — accumulated by
	// the fleet kernel in event order. History-aware policies fit
	// their models from it; it is never nil.
	Observed() *History
}

// Scheduler decides admission: which waiting job starts next, and
// where. Implementations must be stateless across calls (the fleet may
// be replicated across campaign workers) and deterministic — given the
// same queue and view they must return the same pick.
type Scheduler interface {
	// Name is the registry identity; it appears in fleet keys, so
	// equal names must mean equal policy.
	Name() string
	// Pick inspects the waiting queue (arrival order) and returns the
	// index of the job to admit with its placement, or ok=false to
	// leave everything queued. The fleet calls Pick repeatedly until
	// it declines, re-invoking it whenever arrivals or freed capacity
	// change the answer.
	Pick(queue []*Job, v View) (idx int, pl Placement, ok bool)
}

// Waker is an optional Scheduler extension for policies whose answer
// changes with the passage of time alone, not just with arrivals or
// freed capacity (which already re-open admission). Whenever an
// admission pass ends with jobs still queued, the fleet asks a Waker
// when it next wants to be consulted and schedules a re-check at that
// virtual time. NextWakeHours must return a time strictly after now
// (times at or before now are the current pass's job, not a wake-up)
// or ok=false for "nothing time-driven pending".
type Waker interface {
	NextWakeHours(queue []*Job, v View) (hours float64, ok bool)
}

// DefaultSchedulerName is the policy used when a fleet config names
// none: strict arrival order, the simplest baseline.
const DefaultSchedulerName = "fifo"

// schedulers is the policy registry; builtins register at init (see
// internal/registry for the naming rules).
var schedulers = registry.New[Scheduler]("fleet", "scheduler", DefaultSchedulerName)

func init() {
	for _, s := range []Scheduler{
		fifoScheduler{},
		costGreedyScheduler{},
		deadlineAwareScheduler{},
		arbitrageScheduler{},
		predictiveScheduler{},
	} {
		schedulers.Register(s.Name(), s)
	}
}

// LookupScheduler resolves a policy name; the empty string means the
// default. Unknown names report the available ones.
func LookupScheduler(name string) (Scheduler, error) { return schedulers.Lookup(name) }

// SchedulerNames lists every registered policy, sorted, with the
// default first — the order /v1/catalog reports.
func SchedulerNames() []string { return schedulers.Names() }

// regionWithRoom scans the market's regions in Table V order for those
// that offer g and can hold the cluster, and returns the one rank
// scores lowest — the first on ties — with its rank. A nil rank takes
// the first region with room.
func regionWithRoom(v View, market string, g model.GPU, workers int, rank func(cloud.Region) float64) (best cloud.Region, bestRank float64, found bool) {
	spec := v.Spec(market)
	if spec == nil {
		return 0, 0, false
	}
	for _, r := range cloud.AllRegions() {
		if !spec.Offers(r, g) {
			continue
		}
		if free := v.Available(market, r, g); free >= 0 && free < workers {
			continue
		}
		if rank == nil {
			return r, 0, true
		}
		if rk := rank(r); !found || rk < bestRank {
			best, bestRank, found = r, rk, true
		}
	}
	return best, bestRank, found
}

// firstRegionWithRoom is the first region, in Table V order, of the
// market that offers g and can hold the cluster.
func firstRegionWithRoom(v View, market string, g model.GPU, workers int) (cloud.Region, bool) {
	r, _, ok := regionWithRoom(v, market, g, workers, nil)
	return r, ok
}

// clusterHourly prices the job's cluster on GPU g from the market's own
// book: every worker at the tier's rate plus the parameter server.
func clusterHourly(spec *cloud.ProviderSpec, job JobSpec, g model.GPU, tier cloud.Tier) float64 {
	return float64(job.Workers)*spec.GPUHourly(g, tier) + spec.PSHourly
}

// dollarsPerStep is the idealized marginal cost of one training step
// for the job's transient cluster on GPU g, priced from the market's
// book (parameter server included, startup and revocations excluded).
func dollarsPerStep(spec *cloud.ProviderSpec, job JobSpec, g model.GPU) float64 {
	stepsPerHour := model.StepsPerSecond(g, job.Model) * float64(job.Workers) * 3600
	return clusterHourly(spec, job, g, cloud.Transient) / stepsPerHour
}

// fifoScheduler is strict arrival order: only the head of the queue
// may start, on its requested GPU class, in the first region (Table V
// order) with room. A blocked head blocks everyone behind it — the
// head-of-line baseline the smarter policies are measured against.
type fifoScheduler struct{}

func (fifoScheduler) Name() string { return "fifo" }

func (fifoScheduler) Pick(queue []*Job, v View) (int, Placement, bool) {
	if len(queue) == 0 {
		return 0, Placement{}, false
	}
	spec := queue[0].Spec
	if r, ok := firstRegionWithRoom(v, "", spec.GPU, spec.Workers); ok {
		return 0, Placement{Region: r, GPU: spec.GPU, Tier: cloud.Transient}, true
	}
	return 0, Placement{}, false
}

// costGreedyScheduler admits, across the whole queue, the (job,
// placement) pair with the lowest expected dollars per step — hourly
// transient price from the default market's own book over idealized
// speed — substituting GPU classes freely. It never buys on-demand: cost is the objective, deadlines
// are not its problem. Ties break toward earlier arrivals, then the
// catalog order of GPUs and regions, keeping the pick deterministic.
type costGreedyScheduler struct{}

func (costGreedyScheduler) Name() string { return "cost-greedy" }

func (costGreedyScheduler) Pick(queue []*Job, v View) (int, Placement, bool) {
	book := v.Spec("")
	bestIdx, bestPl, best := -1, Placement{}, 0.0
	for i, job := range queue {
		for _, g := range model.AllGPUs() {
			r, ok := firstRegionWithRoom(v, "", g, job.Spec.Workers)
			if !ok {
				continue
			}
			cost := dollarsPerStep(book, job.Spec, g)
			if bestIdx < 0 || cost < best {
				bestIdx, bestPl, best = i, Placement{Region: r, GPU: g, Tier: cloud.Transient}, cost
			}
		}
	}
	if bestIdx < 0 {
		return 0, Placement{}, false
	}
	return bestIdx, bestPl, true
}

// onDemandSlackFactor controls the deadline-aware policy's last
// responsible moment: once a job's remaining time to deadline shrinks
// below this multiple of its optimistic on-demand runtime, waiting for
// a transient slot risks the deadline more than paying full price
// does.
const onDemandSlackFactor = 1.3

// deadlineAwareScheduler is earliest-deadline-first with transient
// preference and an on-demand escape hatch: the most urgent job gets
// the fastest transient cell that fits (urgency beats price); a job
// nobody can fit keeps waiting until waiting itself would blow its
// deadline, at which point it is started on-demand (infinite pool,
// no revocations) on its requested GPU class. Less urgent jobs may
// backfill past a blocked-but-not-yet-at-risk job.
type deadlineAwareScheduler struct{}

func (deadlineAwareScheduler) Name() string { return "deadline-aware" }

func (deadlineAwareScheduler) Pick(queue []*Job, v View) (int, Placement, bool) {
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
		// Fastest transient cell that fits: GPUs by descending speed
		// for this model, regions in Table V order.
		bestG, bestHours, found := model.GPU(0), 0.0, false
		for _, g := range model.AllGPUs() {
			if _, ok := firstRegionWithRoom(v, "", g, spec.Workers); !ok {
				continue
			}
			if h := spec.OptimisticHours(g); !found || h < bestHours {
				bestG, bestHours, found = g, h, true
			}
		}
		if found {
			r, _ := firstRegionWithRoom(v, "", bestG, spec.Workers)
			return idx, Placement{Region: r, GPU: bestG, Tier: cloud.Transient}, true
		}
		// No transient room anywhere: start on-demand if this job has
		// reached its last responsible moment.
		remaining := spec.DeadlineAtHours() - now
		if remaining <= spec.OptimisticHours(spec.GPU)*onDemandSlackFactor {
			r, ok := firstRegionWithRoom(v, "", spec.GPU, 0)
			if !ok {
				continue // GPU class offered nowhere; leave queued
			}
			return idx, Placement{Region: r, GPU: spec.GPU, Tier: cloud.OnDemand}, true
		}
	}
	return 0, Placement{}, false
}

// NextWakeHours implements Waker: the earliest queued job's last
// responsible moment that is still ahead. Without this wake-up the
// on-demand fallback could only trigger piggybacked on an unrelated
// event (an arrival, a finish, a freed slot) — a quiet queue would
// starve past its deadlines, which is exactly what the policy promises
// not to do.
func (deadlineAwareScheduler) NextWakeHours(queue []*Job, v View) (float64, bool) {
	now := v.NowHours()
	best, found := 0.0, false
	for _, job := range queue {
		spec := job.Spec
		if _, ok := firstRegionWithRoom(v, "", spec.GPU, 0); !ok {
			// Pick's on-demand fallback continues past jobs whose GPU
			// class is offered in no region, so waking for one would
			// provably change nothing.
			continue
		}
		at := spec.DeadlineAtHours() - spec.OptimisticHours(spec.GPU)*onDemandSlackFactor
		if at <= now {
			continue // already actionable; Pick handles it this pass
		}
		if !found || at < best {
			best, found = at, true
		}
	}
	return best, found
}
