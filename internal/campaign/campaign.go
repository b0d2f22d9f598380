// Package campaign schedules measurement campaigns: batches of
// independent simulation units executed on a worker pool and
// aggregated deterministically.
//
// The sim kernel is single-threaded by design; determinism there comes
// from one event loop consuming one seeded RNG. This package scales
// that model out the same way CM-DARE ran its own measurement campaign
// across GPU types and regions: every independent replication gets its
// own kernel and its own seed, derived SplitMix-style from the
// campaign seed and the unit's position in the plan. Because a unit's
// seed depends only on (campaign seed, unit index) — never on
// scheduling order — and because outputs are collected by index before
// any aggregation runs, a campaign's result is byte-identical whether
// it ran on one worker or sixteen.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Unit is one independent replication: typically a single simulated
// session or measurement study on a fresh kernel. Run receives the
// unit's derived seed and must not share mutable state with other
// units.
type Unit struct {
	// Key labels the unit in errors, e.g. "speed/K80/ResNet-32".
	Key string
	// Run executes the replication with the derived seed.
	Run func(seed int64) (any, error)
	// RunScratch, when set, takes precedence over Run and receives an
	// empty Scratch.
	//
	// Deprecated: use Run. RunScratch and Scratch remain only for
	// callers written against the retired per-worker arena.
	RunScratch func(seed int64, s *Scratch) (any, error)
}

// Scratch is what RunScratch receives. It holds nothing.
//
// Deprecated: use Unit.Run.
type Scratch struct{}

// Plan is a declared campaign: a base seed, an ordered list of
// independent units, and a reduce that assembles the final value from
// the unit outputs (outs[i] is Units[i]'s output). Reduce runs only
// after every unit succeeded; it sees outputs in declaration order
// regardless of completion order. A panic in Reduce becomes the plan's
// error, as a unit's panic does.
type Plan struct {
	Seed   int64
	Units  []Unit
	Reduce func(outs []any) (any, error)
}

// UnitError reports which unit of a plan failed.
type UnitError struct {
	Key   string
	Index int
	Err   error
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("unit %d (%s): %v", e.Index, e.Key, e.Err)
}

func (e *UnitError) Unwrap() error { return e.Err }

// Outcome is one plan's result in a batch run.
type Outcome struct {
	Value any
	Err   error
}

// ErrSkipped marks a unit that never ran because its batch stopped
// (done returned false) or its context was canceled. Skipped units are
// bookkeeping, not failures: the aggregated error RunEach returns
// filters them out.
var ErrSkipped = errors.New("campaign: unit skipped")

// Pool is a persistent worker pool with a bounded admission queue,
// shared by any number of Engine calls. The per-call pool Engine spins
// up is right for batch runs (cmd/repro); a long-running service that
// answers many concurrent queries wants one fixed set of workers and
// one queue providing backpressure across all of them — that is Pool.
type Pool struct {
	jobs chan func()
	done chan struct{}
	// mu orders Submit against Close: senders hold it shared for the
	// duration of their send, Close takes it exclusively before
	// closing jobs, so a send on a closed channel is impossible.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	workers int

	// Utilization accounting, fed by Submit's wrapper: wall-clock only,
	// never visible to any simulation. waitNanos is accept → start
	// (queue wait), busyNanos is start → end (execution).
	jobsRun   atomic.Int64
	waitNanos atomic.Int64
	busyNanos atomic.Int64
}

// PoolStats is a snapshot of the pool's cumulative utilization.
type PoolStats struct {
	// Workers is the fixed worker count; QueueCapacity the admission
	// queue's size; QueueDepth the jobs waiting right now.
	Workers       int
	QueueCapacity int
	QueueDepth    int
	// JobsRun counts completed jobs; WaitSeconds and BusySeconds total
	// their queue wait (accept → start) and execution time.
	JobsRun     int64
	WaitSeconds float64
	BusySeconds float64
}

// ErrPoolClosed reports a Submit on a closed pool.
var ErrPoolClosed = errors.New("campaign: pool closed")

// NewPool starts a pool of workers goroutines fed by a queue holding
// up to queue pending jobs (0 means hand-off only: every Submit waits
// for a free worker). Workers ≤ 0 uses GOMAXPROCS.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan func(), queue), done: make(chan struct{}), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Submit enqueues one job, blocking while the queue is full. It
// returns the context's error if ctx is done — or ErrPoolClosed if the
// pool closes — before the job is accepted; once accepted, the job
// will run. The func the job returns, if not nil, runs next on the
// same worker, after Stats already counts the job: a job publishes
// its result there, so no one who sees the result can read stale
// utilization.
func (p *Pool) Submit(ctx context.Context, job func() (then func())) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	accepted := time.Now()
	wrapped := func() {
		start := time.Now()
		p.waitNanos.Add(start.Sub(accepted).Nanoseconds())
		then := job()
		p.busyNanos.Add(time.Since(start).Nanoseconds())
		p.jobsRun.Add(1)
		if then != nil {
			then()
		}
	}
	// Fast path: queue has room (or a worker is waiting).
	select {
	case p.jobs <- wrapped:
		return nil
	default:
	}
	select {
	case p.jobs <- wrapped:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-p.done:
		// Close started while we were waiting for queue space.
		return ErrPoolClosed
	}
}

// Stats snapshots the pool's utilization counters. Safe to call from
// any goroutine, including while jobs run.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:       p.workers,
		QueueCapacity: cap(p.jobs),
		QueueDepth:    len(p.jobs),
		JobsRun:       p.jobsRun.Load(),
		WaitSeconds:   float64(p.waitNanos.Load()) / 1e9,
		BusySeconds:   float64(p.busyNanos.Load()) / 1e9,
	}
}

// Close stops accepting jobs, waits for in-flight submissions to
// resolve, then drains the queue and joins the workers. A submission
// accepted before Close wins the race still runs.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.done) // unblock submitters waiting on a full queue
		p.mu.Lock()   // waits out every sender holding the shared lock
		p.closed = true
		p.mu.Unlock()
		close(p.jobs)
		p.wg.Wait()
	})
}

// Engine runs plans on a pool of Workers goroutines. The zero value
// (or any Workers ≤ 0) uses GOMAXPROCS. When Pool is set, execution is
// dispatched onto that shared pool instead and Workers is ignored: the
// pool's size bounds concurrency across every engine sharing it.
type Engine struct {
	Workers int
	Pool    *Pool
	// OnUnit, when set, is called after each unit retires with its
	// wall-clock execution time — the per-unit timing feed the bench
	// artifact and future perf work read. It may be called from any
	// worker goroutine and must be safe for concurrent use. Timing is
	// observational only; unit results never depend on it.
	OnUnit func(plan, unit int, key string, seconds float64)
}

// Run executes a single plan and returns its reduced value.
func (e Engine) Run(p *Plan) (any, error) {
	return e.RunContext(context.Background(), p)
}

// RunContext is Run with cancellation: units not yet started when ctx
// is done are skipped and surface as ErrSkipped-wrapped unit errors.
func (e Engine) RunContext(ctx context.Context, p *Plan) (any, error) {
	var out Outcome
	e.RunEachContext(ctx, []*Plan{p}, func(i int, o Outcome) bool {
		out = o
		return true
	})
	return out.Value, out.Err
}

// RunAll executes several plans on one shared worker pool, so the tail
// of one experiment overlaps the head of the next. Each plan's unit
// seeds are derived from its own Seed exactly as in Run, and each plan
// reduces over its own index-ordered outputs, so per-plan results are
// identical to running the plans one at a time.
func (e Engine) RunAll(plans []*Plan) []Outcome {
	results := make([]Outcome, len(plans))
	e.RunEach(plans, func(i int, o Outcome) bool {
		results[i] = o
		return true
	})
	return results
}

// RunEach is RunAll with streaming delivery: done is invoked once per
// plan, in declaration order, as soon as that plan and every earlier
// one have finished — so a caller can print experiment results while
// later campaigns are still running. Returning false from done stops
// the batch: units not yet started are skipped (in-flight units
// finish) and no further callbacks fire. Because delivery order is
// declaration order, the sequence of callbacks before a stop is
// identical for every worker count.
//
// A stop can strand real failures: units already in flight when done
// returned false still finish, and their plans are never delivered.
// Rather than dropping those errors on the floor, RunEach returns them
// aggregated (errors.Join of UnitErrors) once every in-flight unit has
// retired; nil means nothing was lost.
func (e Engine) RunEach(plans []*Plan, done func(i int, o Outcome) bool) error {
	return e.RunEachContext(context.Background(), plans, done)
}

// RunEachContext is RunEach with cancellation. When ctx is done, units
// not yet started are skipped (recorded as ErrSkipped-wrapped errors in
// their plans' outcomes) while in-flight units finish; delivery still
// runs to completion so every plan gets its callback. The returned
// error aggregates the context's cause with any real unit errors whose
// plans were never delivered after a stop.
func (e Engine) RunEachContext(ctx context.Context, plans []*Plan, done func(i int, o Outcome) bool) error {
	runs := make([]planRun, len(plans))
	var jobs []job
	for pi, p := range plans {
		r := &runs[pi]
		r.plan = p
		r.outs, r.errs = make([]any, len(p.Units)), make([]error, len(p.Units))
		r.remaining.Store(int64(len(p.Units)))
		for ui := range p.Units {
			jobs = append(jobs, job{pi, ui})
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Delivery state lives on this goroutine: plans are handed to done
	// in declaration order as soon as they and every earlier plan have
	// finished. A false return from done latches stop, which skips
	// every unit not yet started.
	var stop atomic.Bool
	completed := make([]bool, len(plans))
	delivered := make([]bool, len(plans))
	next := 0
	deliver := func(pi int) {
		completed[pi] = true
		for next < len(plans) && completed[next] {
			delivered[next] = true
			if !done(next, runs[next].outcome()) {
				stop.Store(true)
				next = len(plans)
				return
			}
			next++
		}
	}

	// Every plan announces exactly once: a plan with no units right
	// away, any other when its last unit retires.
	planReady := make(chan int, len(plans))
	for pi, p := range plans {
		if len(p.Units) == 0 {
			planReady <- pi
		}
	}
	// run executes one unit and reports whether it was its plan's
	// last, whose caller then announces the plan.
	run := func(j job) (last bool) {
		r := &runs[j.plan]
		if stop.Load() {
			r.errs[j.unit] = fmt.Errorf("%w: batch stopped", ErrSkipped)
		} else if cause := context.Cause(ctx); cause != nil {
			r.errs[j.unit] = fmt.Errorf("%w: %v", ErrSkipped, cause)
		} else {
			u := r.plan.Units[j.unit]
			start := time.Now()
			out, err := runUnit(u, Derive(r.plan.Seed, uint64(j.unit), u.Key))
			if e.OnUnit != nil {
				e.OnUnit(j.plan, j.unit, u.Key, time.Since(start).Seconds())
			}
			r.outs[j.unit] = out
			r.errs[j.unit] = err
		}
		// The atomic decrement orders every worker's writes to this
		// plan's slots before the announcement.
		return r.remaining.Add(-1) == 0
	}

	switch {
	case e.Pool != nil:
		// Shared pool: submissions ride the pool's bounded queue, so a
		// full queue backpressures this call without starving other
		// engines. A submission aborted by ctx retires its unit here.
		for _, j := range jobs {
			// The plan announces after the pool counts the job, so a
			// caller that sees the plan's result sees the job counted.
			err := e.Pool.Submit(ctx, func() func() {
				if run(j) {
					return func() { planReady <- j.plan }
				}
				return nil
			})
			if err != nil {
				r := &runs[j.plan]
				r.errs[j.unit] = fmt.Errorf("%w: %v", ErrSkipped, err)
				if r.remaining.Add(-1) == 0 {
					planReady <- j.plan
				}
			}
		}
		// Drain every announcement even after a stop: receiving them
		// all is what guarantees in-flight units have retired before
		// the dropped-error scan below.
		for range plans {
			deliver(<-planReady)
		}

	case workers <= 1:
		// Sequential mode interleaves execution and delivery on one
		// goroutine, so a stop takes effect before the next unit runs
		// and nothing is ever in flight when it does.
		drain := func() {
			for {
				select {
				case pi := <-planReady:
					deliver(pi)
				default:
					return
				}
			}
		}
		for _, j := range jobs {
			drain()
			if stop.Load() {
				break
			}
			if run(j) {
				planReady <- j.plan
			}
		}
		drain()

	default:
		// Workers take jobs in declaration order by an atomic index.
		var taken atomic.Int64
		var wg sync.WaitGroup
		for range min(workers, len(jobs)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(taken.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					if run(jobs[i]) {
						planReady <- jobs[i].plan
					}
				}
			}()
		}
		for n := 0; n < len(plans) && next < len(plans); n++ {
			deliver(<-planReady)
		}
		// Joining the workers publishes every in-flight unit's error
		// slot before the dropped-error scan.
		wg.Wait()
	}

	// Surface what fail-fast would otherwise lose: real errors from
	// units that finished after the stop, in plans that were never
	// handed to done.
	var droppedErrs []error
	if cause := context.Cause(ctx); cause != nil {
		droppedErrs = append(droppedErrs, cause)
	}
	for pi := range runs {
		if delivered[pi] {
			continue
		}
		for ui, err := range runs[pi].errs {
			if err == nil || errors.Is(err, ErrSkipped) {
				continue
			}
			droppedErrs = append(droppedErrs, runs[pi].unitError(ui))
		}
	}
	return errors.Join(droppedErrs...)
}

// job is one unit of one plan.
type job struct{ plan, unit int }

// planRun is one plan's progress: its units' outputs and errors by
// index, and how many units have yet to retire.
type planRun struct {
	plan      *Plan
	outs      []any
	errs      []error
	remaining atomic.Int64
}

func (r *planRun) unitError(i int) *UnitError {
	return &UnitError{Key: r.plan.Units[i].Key, Index: i, Err: r.errs[i]}
}

// outcome resolves a finished plan: the first failed unit in
// declaration order wins (deterministic regardless of which units
// happened to finish), otherwise Reduce assembles the value. A panic
// in Reduce is recovered into the outcome, so it fails its plan
// instead of the caller.
func (r *planRun) outcome() (o Outcome) {
	for i, err := range r.errs {
		if err != nil {
			return Outcome{Err: r.unitError(i)}
		}
	}
	if r.plan.Reduce == nil {
		return Outcome{Value: r.outs}
	}
	defer func() {
		if v := recover(); v != nil {
			o = Outcome{Err: fmt.Errorf("panic in reduce: %v", v)}
		}
	}()
	v, err := r.plan.Reduce(r.outs)
	return Outcome{Value: v, Err: err}
}

// runUnit executes one unit, converting a panic into an error so a
// logic bug in one replication fails its campaign loudly instead of
// tearing down unrelated ones mid-pool.
func runUnit(u Unit, seed int64) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if u.RunScratch != nil {
		return u.RunScratch(seed, &Scratch{})
	}
	return u.Run(seed)
}

// Derive maps (campaign seed, unit index, unit key) to the unit's
// seed with a SplitMix64 finalizer. Consecutive indices land in
// uncorrelated streams, and hashing the key keeps distinct
// experiments sharing one campaign seed (cmd/repro -exp all) from
// replaying each other's RNG streams when their grids overlap. The
// result is masked non-negative so downstream seed arithmetic
// (seed+1 idioms) stays in range.
func Derive(seed int64, i uint64, key string) int64 {
	// FNV-1a over the key, folded into the SplitMix stream.
	h := uint64(14695981039346656037)
	for _, b := range []byte(key) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	x := uint64(seed) + (i+1)*0x9E3779B97F4A7C15 + h
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x &^ (1 << 63))
}
