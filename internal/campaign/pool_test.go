package campaign

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockUnit returns a unit that signals started once it runs, then
// waits for release.
func blockUnit(key string, started, release chan struct{}) Unit {
	return Unit{Key: key, Run: func(int64) (any, error) {
		close(started)
		<-release
		return key, nil
	}}
}

// waitFor polls cond until it holds, failing the test after 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedPoolMatchesOwnWorkers: a unit run on a shared pool gets
// what it gets as the only unit of a plan on an engine's own workers.
func TestSharedPoolMatchesOwnWorkers(t *testing.T) {
	pool := NewPool(4, 16)
	defer pool.Close()
	for _, u := range sumPlan(7, 20).Units {
		want, err := Engine{Workers: 1}.Run(&Plan{Seed: 7, Units: []Unit{u}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.Run(context.Background(), 7, u)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.([]any)[0] {
			t.Errorf("%s: pool run %v differs from engine run %v", u.Key, got, want)
		}
	}
}

// TestSharedPoolAcrossConcurrentCallers: many callers running units on
// one pool must neither deadlock nor cross results, and never run more
// units at once than the pool has workers; this is the planner's
// steady state.
func TestSharedPoolAcrossConcurrentCallers(t *testing.T) {
	const workers, callers, units = 4, 8, 20
	pool := NewPool(workers, 8)
	defer pool.Close()
	probe := &inFlight{}
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < units; i++ {
				key := fmt.Sprintf("caller-%d/unit-%d", c, i)
				got, err := pool.Run(context.Background(), int64(c), Unit{Key: key, Run: func(s int64) (any, error) {
					defer probe.enter()()
					time.Sleep(100 * time.Microsecond)
					return s, nil
				}})
				if err != nil {
					errs[c] = err
					return
				}
				if got != Derive(int64(c), 0, key) {
					errs[c] = fmt.Errorf("%s got someone else's seed", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	if probe.peak > workers {
		t.Fatalf("%d units in flight on a %d-worker pool", probe.peak, workers)
	}
	if st := pool.Stats(); st.JobsRun != callers*units || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want %d jobs run and an empty queue", st, callers*units)
	}
}

// skippedUnitError checks that err is a skip of key caused by cause,
// with the text the planner's HTTP bodies carry.
func skippedUnitError(t *testing.T, err error, key string, cause error) {
	t.Helper()
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Key != key {
		t.Fatalf("error %v is not a UnitError for %s", err, key)
	}
	if !errors.Is(err, ErrSkipped) || !errors.Is(err, cause) {
		t.Fatalf("error %v does not wrap both ErrSkipped and %v", err, cause)
	}
	if want := fmt.Sprintf("unit 0 (%s): campaign: unit skipped: %v", key, cause); err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
}

// TestPoolRunRespectsContext: with one worker and no queue, a second
// Run waits for admission, and a canceled context releases it with
// the context's cause without running its unit.
func TestPoolRunRespectsContext(t *testing.T) {
	pool := NewPool(1, 0)
	defer pool.Close()
	started, release := make(chan struct{}), make(chan struct{})
	occupied := make(chan error, 1)
	go func() {
		_, err := pool.Run(context.Background(), 1, blockUnit("decoy", started, release))
		occupied <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := pool.Run(ctx, 1, Unit{Key: "waiter", Run: func(int64) (any, error) {
			ran.Store(true)
			return nil, nil
		}})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		skippedUnitError(t, err, "waiter", context.Canceled)
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not honor cancellation")
	}
	if ran.Load() {
		t.Fatal("a canceled unit ran")
	}
	close(release)
	if err := <-occupied; err != nil {
		t.Fatalf("the running unit failed: %v", err)
	}
}

// TestCanceledContextRunsNothing: once the context is done, no unit
// starts on any pool shape, even one with free workers.
func TestCanceledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shape := range [][2]int{{1, 0}, {2, 0}, {4, 8}} {
		pool := NewPool(shape[0], shape[1])
		var ran atomic.Int64
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("unit-%d", i)
			_, err := pool.Run(ctx, 1, Unit{Key: key, Run: func(int64) (any, error) {
				ran.Add(1)
				return nil, nil
			}})
			skippedUnitError(t, err, key, context.Canceled)
		}
		if ran.Load() != 0 || pool.Stats().JobsRun != 0 {
			t.Fatalf("pool %v: %d units ran after cancellation", shape, ran.Load())
		}
		pool.Close()
	}
}

// TestPoolRunCancelSkipsQueuedUnits: units admitted to the queue but
// not yet running are skipped when their context ends, while the unit
// already running finishes normally.
func TestPoolRunCancelSkipsQueuedUnits(t *testing.T) {
	pool := NewPool(1, 4)
	defer pool.Close()
	started, release := make(chan struct{}), make(chan struct{})
	running := make(chan error, 1)
	go func() {
		_, err := pool.Run(context.Background(), 1, blockUnit("running", started, release))
		running <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	const queued = 3
	var ran atomic.Int64
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := pool.Run(ctx, 1, Unit{Key: "queued", Run: func(int64) (any, error) {
				ran.Add(1)
				return nil, nil
			}})
			errs <- err
		}()
	}
	waitFor(t, "the queue to fill", func() bool { return pool.Stats().QueueDepth == queued })
	cancel()
	for i := 0; i < queued; i++ {
		skippedUnitError(t, <-errs, "queued", context.Canceled)
	}
	close(release)
	if err := <-running; err != nil {
		t.Fatalf("the running unit failed: %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d queued units ran after cancellation", n)
	}
	if st := pool.Stats(); st.JobsRun != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want only the running unit counted and an empty queue", st)
	}
}

// TestPoolRunAfterCloseRunsNothing: Close stops admission, but units
// admitted before it, running or queued, still run to completion.
func TestPoolRunAfterCloseRunsNothing(t *testing.T) {
	pool := NewPool(1, 1)
	started, release := make(chan struct{}), make(chan struct{})
	admitted := make(chan error, 2)
	go func() {
		_, err := pool.Run(context.Background(), 1, blockUnit("running", started, release))
		admitted <- err
	}()
	<-started
	go func() {
		out, err := pool.Run(context.Background(), 1, Unit{Key: "queued", Run: func(s int64) (any, error) { return s, nil }})
		if err == nil && out != Derive(1, 0, "queued") {
			err = fmt.Errorf("output %v", out)
		}
		admitted <- err
	}()
	waitFor(t, "the queued unit", func() bool { return pool.Stats().QueueDepth == 1 })
	pool.Close()
	pool.Close() // idempotent

	var ran atomic.Bool
	_, err := pool.Run(context.Background(), 1, Unit{Key: "late", Run: func(int64) (any, error) {
		ran.Store(true)
		return nil, nil
	}})
	skippedUnitError(t, err, "late", ErrPoolClosed)
	if ran.Load() {
		t.Fatal("a unit ran on a closed pool")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-admitted; err != nil {
			t.Fatalf("a unit admitted before Close did not finish: %v", err)
		}
	}
	if n := pool.Stats().JobsRun; n != 2 {
		t.Fatalf("jobs run = %d, want 2", n)
	}
}

// TestPoolCountsJobBeforeItsContinuation pins the accounting order: a
// caller's code after Run, where the planner publishes a result, sees
// the unit counted with its busy time.
func TestPoolCountsJobBeforeItsContinuation(t *testing.T) {
	pool := NewPool(1, 0)
	defer pool.Close()
	_, err := pool.Run(context.Background(), 1, Unit{Key: "sleep", Run: func(int64) (any, error) {
		time.Sleep(time.Millisecond)
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.JobsRun != 1 || st.BusySeconds <= 0 {
		t.Fatalf("caller saw %+v, want the job counted with its busy time", st)
	}
}

// TestPoolRunUnitErrors: a unit's own error or panic comes back as a
// UnitError naming it, and the unit still counts as run.
func TestPoolRunUnitErrors(t *testing.T) {
	pool := NewPool(2, 0)
	defer pool.Close()
	for _, u := range []Unit{
		{Key: "fails", Run: func(int64) (any, error) { return nil, fmt.Errorf("deliberate") }},
		{Key: "panics", Run: func(int64) (any, error) { panic("kaboom") }},
	} {
		out, err := pool.Run(context.Background(), 1, u)
		var ue *UnitError
		if out != nil || !errors.As(err, &ue) || ue.Key != u.Key || errors.Is(err, ErrSkipped) {
			t.Fatalf("%s: Run = (%v, %v), want a UnitError naming the unit", u.Key, out, err)
		}
	}
	if n := pool.Stats().JobsRun; n != 2 {
		t.Fatalf("jobs run = %d, want 2", n)
	}
}

func TestRunEachSurfacesDroppedInFlightErrors(t *testing.T) {
	// Plan 1's unit fails while plan 0 is still running; plan 0's
	// delivery then stops the batch, so plan 1 is never delivered. Its
	// real error must come back from RunEach instead of vanishing.
	gate := make(chan struct{})
	plan0 := &Plan{Seed: 1, Units: []Unit{{
		Key: "slow-fail",
		Run: func(s int64) (any, error) {
			<-gate
			return nil, fmt.Errorf("plan0 deliberate")
		},
	}}}
	plan1Failed := make(chan struct{})
	plan1 := &Plan{Seed: 2, Units: []Unit{{
		Key: "fast-fail",
		Run: func(s int64) (any, error) {
			close(plan1Failed)
			return nil, fmt.Errorf("plan1 dropped")
		},
	}}}
	go func() {
		// Let plan 1 fail first, then release plan 0.
		<-plan1Failed
		close(gate)
	}()
	var calls []int
	err := Engine{Workers: 2}.RunEach([]*Plan{plan0, plan1}, func(i int, o Outcome) bool {
		calls = append(calls, i)
		return o.Err == nil // plan 0 fails → stop
	})
	if len(calls) != 1 || calls[0] != 0 {
		t.Fatalf("callbacks = %v, want [0] then stop", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "plan1 dropped") {
		t.Fatalf("RunEach = %v, want plan 1's in-flight error surfaced", err)
	}
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Key != "fast-fail" {
		t.Fatalf("aggregated error %v does not identify the dropped unit", err)
	}
}

func TestRunEachReturnsNilWhenNothingDropped(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := (Engine{Workers: workers}).RunEach(
			[]*Plan{sumPlan(1, 5), sumPlan(2, 5)},
			func(int, Outcome) bool { return true },
		); err != nil {
			t.Fatalf("workers=%d: clean batch returned %v", workers, err)
		}
	}
}
