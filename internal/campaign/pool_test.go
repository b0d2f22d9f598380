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

func TestSharedPoolMatchesOwnWorkers(t *testing.T) {
	pool := NewPool(4, 16)
	defer pool.Close()
	want, err := Engine{Workers: 1}.Run(sumPlan(7, 50))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Engine{Pool: pool}.Run(sumPlan(7, 50))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pool-backed run differs from sequential run")
	}
}

func TestSharedPoolAcrossConcurrentEngines(t *testing.T) {
	// Many engines dispatching onto one pool must neither deadlock nor
	// cross results between batches; this is the planner's steady state.
	pool := NewPool(4, 8)
	defer pool.Close()
	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := Engine{Pool: pool}.Run(sumPlan(int64(c), 20))
			if err != nil {
				errs[c] = err
				return
			}
			results[c] = v.(string)
		}()
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		want, err := Engine{Workers: 1}.Run(sumPlan(int64(c), 20))
		if err != nil {
			t.Fatal(err)
		}
		if results[c] != want {
			t.Errorf("caller %d got a result from someone else's batch", c)
		}
	}
}

func TestPoolSubmitRespectsContext(t *testing.T) {
	// One worker, zero queue: a second submission must wait, and a
	// canceled context must release it with the context's cause.
	pool := NewPool(1, 0)
	defer pool.Close()
	block := make(chan struct{})
	if err := pool.Submit(context.Background(), func() func() { <-block; return nil }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pool.Submit(ctx, func() func() { return nil }) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit did not honor cancellation")
	}
	close(block)
}

// TestPoolCountsJobBeforeItsContinuation pins the accounting order: a
// job's continuation, where the engine publishes a plan's result, runs
// only after Stats counts the job and its busy time.
func TestPoolCountsJobBeforeItsContinuation(t *testing.T) {
	pool := NewPool(1, 0)
	defer pool.Close()
	seen := make(chan PoolStats, 1)
	err := pool.Submit(context.Background(), func() func() {
		time.Sleep(time.Millisecond)
		return func() { seen <- pool.Stats() }
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := <-seen; st.JobsRun != 1 || st.BusySeconds <= 0 {
		t.Fatalf("continuation saw %+v, want the job counted with its busy time", st)
	}
}

func TestRunEachContextCancelSkipsPendingUnits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	p := &Plan{Seed: 1}
	const n = 16
	for i := 0; i < n; i++ {
		i := i
		p.Units = append(p.Units, Unit{
			Key: fmt.Sprintf("unit-%d", i),
			Run: func(s int64) (any, error) {
				if i == 0 {
					// Cancellation lands while this unit is in flight;
					// it must still finish normally while every unit
					// behind it is skipped.
					cancel()
				}
				ran.Add(1)
				return s, nil
			},
		})
	}
	var got Outcome
	err := Engine{Workers: 1}.RunEachContext(ctx, []*Plan{p}, func(i int, o Outcome) bool {
		got = o
		return true
	})
	if got.Err == nil {
		t.Fatal("plan with skipped units must fail its reduce")
	}
	if !errors.Is(got.Err, ErrSkipped) {
		t.Fatalf("outcome error %v does not wrap ErrSkipped", got.Err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d units ran after cancellation, want 1", n)
	}
	// The aggregated error carries the cancellation cause even though
	// every plan was delivered.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunEachContext = %v, want context.Canceled surfaced", err)
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
