// Package campaign schedules measurement campaigns: batches of
// independent simulation units executed in parallel and aggregated
// deterministically.
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
//
// Two runners share that unit model. Engine runs batches of plans on
// workers it starts for each call (cmd/repro, cmdare). The worker that
// retires a plan's last unit reduces the plan, beside other plans'
// units and reduces, and hands the caller each resolved plan in
// declaration order, one at a time. Pool bounds how many units a
// long-running service runs at once, and its Run executes one unit on
// the caller's goroutine (the planner's queries).
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
// after every unit succeeded, on the worker that retired the last one,
// so it may run concurrently with other plans' units and reduces. It
// sees outputs in declaration order regardless of completion order. A
// panic in Reduce becomes the plan's error, as a unit's panic does.
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

// ErrSkipped marks a unit that never ran: its batch stopped (done
// returned false), or its context ended or its pool closed before it
// started. Skipped units are bookkeeping, not failures: the aggregated
// error RunEach returns filters them out.
var ErrSkipped = errors.New("campaign: unit skipped")

// ErrPoolClosed is the cause of a skip by a closed Pool.
var ErrPoolClosed = errors.New("campaign: pool closed")

// Pool bounds how many units a long-running service runs at once,
// across every caller sharing it. It starts no goroutines: Run
// executes its unit on the caller's goroutine once the pool has
// admitted it and a worker slot is free. Admission is bounded too, to
// the workers plus a queue, so heavy traffic backpressures instead of
// piling up.
type Pool struct {
	// admitted holds one token per admitted unit, waiting or running;
	// running one per running unit.
	admitted, running chan struct{}
	closed            chan struct{}
	closeOnce         sync.Once

	// Utilization accounting: wall-clock only, never visible to any
	// simulation. waitNanos is admission → start (queue wait),
	// busyNanos is start → end (execution).
	jobsRun   atomic.Int64
	waitNanos atomic.Int64
	busyNanos atomic.Int64
}

// PoolStats is a snapshot of the pool's cumulative utilization.
type PoolStats struct {
	// Workers is how many units may run at once; QueueCapacity how
	// many more may wait; QueueDepth the units waiting right now.
	Workers       int
	QueueCapacity int
	QueueDepth    int
	// JobsRun counts units that ran, skips excluded; WaitSeconds and
	// BusySeconds total their queue wait (admission → start) and
	// execution time.
	JobsRun     int64
	WaitSeconds float64
	BusySeconds float64
}

// NewPool returns a pool running up to workers units at once, with up
// to queue more admitted and waiting (0 means none wait: Run blocks
// for admission until a worker slot is free). Workers ≤ 0 uses
// GOMAXPROCS.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	return &Pool{
		admitted: make(chan struct{}, workers+queue),
		running:  make(chan struct{}, workers),
		closed:   make(chan struct{}),
	}
}

// Run executes u on the caller's goroutine with the seed it would get
// as the only unit of a Plan with this Seed, Derive(seed, 0, u.Key),
// and returns its output. It blocks while the pool is full. If ctx
// ends or the pool closes before u is admitted, or ctx ends before u
// starts, u is skipped: its error wraps ErrSkipped and the cause.
// Every error is a *UnitError naming u.Key. A unit that ran is counted
// in Stats before Run returns, so a caller that sees its result sees
// it counted.
func (p *Pool) Run(ctx context.Context, seed int64, u Unit) (any, error) {
	out, err := p.run(ctx, seed, u)
	if err != nil {
		return nil, &UnitError{Key: u.Key, Err: err}
	}
	return out, nil
}

func (p *Pool) run(ctx context.Context, seed int64, u Unit) (any, error) {
	// A select picks at random among ready cases, so a closed pool and
	// an ended ctx are checked apart from the token they race with.
	select {
	case <-p.closed:
		return nil, skipped(ErrPoolClosed)
	default:
	}
	select {
	case p.admitted <- struct{}{}:
	case <-ctx.Done():
		return nil, skipped(context.Cause(ctx))
	case <-p.closed:
		return nil, skipped(ErrPoolClosed)
	}
	defer func() { <-p.admitted }()
	admittedAt := time.Now()
	select {
	case p.running <- struct{}{}:
	case <-ctx.Done():
		return nil, skipped(context.Cause(ctx))
	}
	defer func() { <-p.running }()
	if cause := context.Cause(ctx); cause != nil {
		return nil, skipped(cause)
	}
	start := time.Now()
	p.waitNanos.Add(start.Sub(admittedAt).Nanoseconds())
	out, err := runUnit(u, Derive(seed, 0, u.Key))
	p.busyNanos.Add(time.Since(start).Nanoseconds())
	p.jobsRun.Add(1)
	return out, err
}

func skipped(cause error) error { return fmt.Errorf("%w: %w", ErrSkipped, cause) }

// Stats snapshots the pool's utilization counters. Safe to call from
// any goroutine, including while units run.
func (p *Pool) Stats() PoolStats {
	workers := cap(p.running)
	return PoolStats{
		Workers:       workers,
		QueueCapacity: cap(p.admitted) - workers,
		// The two lengths are read apart, so clamp a transient skew.
		QueueDepth:  max(0, len(p.admitted)-len(p.running)),
		JobsRun:     p.jobsRun.Load(),
		WaitSeconds: float64(p.waitNanos.Load()) / 1e9,
		BusySeconds: float64(p.busyNanos.Load()) / 1e9,
	}
}

// Close stops admission: a later Run is skipped with ErrPoolClosed.
// Units already admitted still run on their callers; Close does not
// wait for them.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.closed) })
}

// Engine runs batches of plans on Workers goroutines it starts for
// each call. The zero value (or any Workers ≤ 0) uses GOMAXPROCS.
type Engine struct {
	Workers int
}

// Run executes a single plan and returns its reduced value.
func (e Engine) Run(p *Plan) (any, error) {
	var out Outcome
	e.RunEach([]*Plan{p}, func(_ int, o Outcome) bool {
		out = o
		return true
	})
	return out.Value, out.Err
}

// RunEach executes several plans on one set of workers, so the tail of
// one plan overlaps the head of the next. Each plan's unit seeds are
// derived from its own Seed and each plan reduces over its own
// index-ordered outputs, so per-plan results are identical to running
// the plans one at a time.
//
// A plan's Reduce runs on the worker that retires its last unit, so
// reduces of different plans overlap each other and later units. done
// is invoked once per plan, in declaration order, as soon as that plan
// and every earlier one have resolved — so a caller can print
// experiment results while later campaigns are still running. done is
// called from a worker (from the caller when Workers ≤ 1), never
// concurrently, and each call happens before the next and before
// RunEach returns.
//
// Returning false from done stops the batch: units not yet started are
// skipped (in-flight units finish), no Reduce starts and no further
// callbacks fire. Because delivery order is declaration order, the
// sequence of callbacks before a stop is identical for every worker
// count. A panic in done stops the batch the same way and is re-raised
// on the caller once every worker has returned.
//
// A stop can strand real failures: units already in flight when done
// returned false still finish, and their plans are never delivered.
// Rather than dropping those errors on the floor, RunEach returns them
// aggregated (errors.Join of UnitErrors) once every in-flight unit has
// retired; nil means nothing was lost.
func (e Engine) RunEach(plans []*Plan, done func(i int, o Outcome) bool) error {
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

	// Plans before next have been handed to done; outcomes[i] is set
	// once plan i resolves. done runs under mu, so its calls never
	// overlap, and a false return or a panic latches stop under mu.
	var (
		stop      atomic.Bool
		mu        sync.Mutex
		next      int
		outcomes  = make([]*Outcome, len(plans))
		donePanic any
	)
	// resolve reduces plan pi, unless the batch has stopped, then hands
	// done every consecutive resolved plan from next. Reading stop under
	// mu waits out a done call in progress, so no Reduce starts after a
	// stop.
	resolve := func(pi int) {
		mu.Lock()
		stopped := stop.Load()
		mu.Unlock()
		if stopped {
			return
		}
		o := runs[pi].outcome()
		mu.Lock()
		defer func() {
			if v := recover(); v != nil {
				donePanic = v
				stop.Store(true)
			}
			mu.Unlock()
		}()
		outcomes[pi] = &o
		for ; !stop.Load() && next < len(plans) && outcomes[next] != nil; next++ {
			if !done(next, *outcomes[next]) {
				stop.Store(true)
			}
		}
	}

	for pi, p := range plans {
		if len(p.Units) == 0 {
			resolve(pi)
		}
	}
	// Workers take jobs in declaration order by an atomic index, and
	// whoever retires a plan's last unit resolves the plan. With one
	// worker the caller is the worker, so each plan resolves before the
	// next unit runs and nothing is in flight when a stop lands.
	var taken atomic.Int64
	work := func() {
		for i := int(taken.Add(1)) - 1; i < len(jobs); i = int(taken.Add(1)) - 1 {
			j := jobs[i]
			r := &runs[j.plan]
			if stop.Load() {
				r.errs[j.unit] = fmt.Errorf("%w: batch stopped", ErrSkipped)
			} else {
				u := r.plan.Units[j.unit]
				r.outs[j.unit], r.errs[j.unit] = runUnit(u, Derive(r.plan.Seed, uint64(j.unit), u.Key))
			}
			// The atomic decrement orders every worker's writes to this
			// plan's slots before its resolution.
			if r.remaining.Add(-1) == 0 {
				resolve(j.plan)
			}
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range min(workers, len(jobs)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		// Joining the workers publishes every in-flight unit's error
		// slot and every done call before the checks below.
		wg.Wait()
	}
	if donePanic != nil {
		panic(donePanic)
	}

	// Surface what fail-fast would otherwise lose: real errors from
	// units that finished after the stop, in plans that were never
	// handed to done.
	var droppedErrs []error
	for pi := next; pi < len(runs); pi++ {
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
