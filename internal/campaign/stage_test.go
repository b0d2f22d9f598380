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

// stagedPlan has n first-stage units echoing (index, seed); its second
// stage declares one follow-up unit per first-stage output, each
// echoing that output with its own seed, and reduces them in order. If
// probe is set, every follow-up unit reports itself in flight to it.
func stagedPlan(seed int64, n int, probe *inFlight) *Plan {
	p := sumPlan(seed, n)
	p.Reduce = nil
	p.Then = func(outs []any) (*Plan, error) {
		next := sumPlan(seed+1, 0)
		for i, o := range outs {
			i, o := i, o
			next.Units = append(next.Units, Unit{
				Key: fmt.Sprintf("follow-%d", i),
				Run: func(s int64) (any, error) {
					if probe != nil {
						defer probe.enter()()
						time.Sleep(time.Millisecond)
					}
					return fmt.Sprintf("%s>%d", o, s), nil
				},
			})
		}
		return next, nil
	}
	return p
}

// inFlight records the peak number of concurrently running units.
type inFlight struct {
	mu        sync.Mutex
	now, peak int
}

func (f *inFlight) enter() (leave func()) {
	f.mu.Lock()
	f.now++
	if f.now > f.peak {
		f.peak = f.now
	}
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.now--
		f.mu.Unlock()
	}
}

func TestStagedPlanIdenticalAcrossEngines(t *testing.T) {
	want, err := Engine{Workers: 1}.Run(stagedPlan(5, 40, nil))
	if err != nil {
		t.Fatal(err)
	}
	if s := want.(string); !strings.HasPrefix(s, "0:") || strings.Count(s, ">") != 40 {
		t.Fatalf("staged output %q does not chain both stages", s)
	}
	// A follow-up plan run on its own derives the same unit seeds.
	follow, err := stagedPlan(5, 40, nil).Then(mustOuts(t, sumPlan(5, 40)))
	if err != nil {
		t.Fatal(err)
	}
	if alone, err := (Engine{Workers: 1}).Run(follow); err != nil || alone != want {
		t.Fatalf("follow-up plan alone = %v, %v; want the staged result", alone, err)
	}

	pool := NewPool(3, 2)
	defer pool.Close()
	for _, e := range []Engine{{Workers: 2}, {Workers: 8}, {Pool: pool}} {
		// Several plans in one batch, staged and plain, so follow-ups
		// interleave with other plans' first stages.
		plans := []*Plan{stagedPlan(5, 40, nil), sumPlan(9, 30), stagedPlan(5, 40, nil)}
		for i, o := range e.RunAll(plans) {
			if o.Err != nil {
				t.Fatalf("workers=%d pool=%v plan %d: %v", e.Workers, e.Pool != nil, i, o.Err)
			}
			if i != 1 && o.Value != want {
				t.Fatalf("workers=%d pool=%v plan %d: staged result differs", e.Workers, e.Pool != nil, i)
			}
		}
	}
}

func mustOuts(t *testing.T, p *Plan) []any {
	t.Helper()
	p.Reduce = nil
	v, err := Engine{Workers: 1}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return v.([]any)
}

func TestStagedPlanOnUnitNumbersFollowUps(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]string{}
	e := Engine{Workers: 3, OnUnit: func(plan, unit int, key string, _ float64) {
		mu.Lock()
		defer mu.Unlock()
		if plan != 1 {
			t.Errorf("unit %s reported under plan %d, want the parent plan 1", key, plan)
		}
		seen[unit] = key
	}}
	e.RunAll([]*Plan{{Seed: 1}, stagedPlan(2, 4, nil)})
	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("unit-%d", i)
		if i >= 4 {
			want = fmt.Sprintf("follow-%d", i-4)
		}
		if seen[i] != want {
			t.Fatalf("OnUnit index %d = %q, want %q (all: %v)", i, seen[i], want, seen)
		}
	}
}

func TestStagedPlanFollowUpErrorNamesUnit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := stagedPlan(3, 6, nil)
		then := p.Then
		p.Then = func(outs []any) (*Plan, error) {
			next, err := then(outs)
			next.Units[2].Run = func(int64) (any, error) { return nil, errors.New("fit diverged") }
			return next, err
		}
		_, err := Engine{Workers: workers}.Run(p)
		var ue *UnitError
		if !errors.As(err, &ue) || ue.Key != "follow-2" || ue.Index != 6+2 {
			t.Fatalf("workers=%d: error %v, want a UnitError for follow-2 at index 8", workers, err)
		}
	}
}

func TestStagedPlanThenErrors(t *testing.T) {
	cases := map[string]func([]any) (*Plan, error){
		"error": func([]any) (*Plan, error) { return nil, errors.New("no dataset") },
		"panic": func([]any) (*Plan, error) { panic("bad dataset") },
		"nil":   func([]any) (*Plan, error) { return nil, nil },
	}
	for name, then := range cases {
		for _, workers := range []int{1, 4} {
			p := sumPlan(1, 3)
			p.Then = then
			if _, err := (Engine{Workers: workers}).Run(p); err == nil {
				t.Fatalf("%s, workers=%d: want the second stage's failure", name, workers)
			}
		}
	}
	// A failed first stage never reaches Then.
	p := sumPlan(1, 3)
	p.Units[1].Run = func(int64) (any, error) { return nil, errors.New("boom") }
	p.Then = func([]any) (*Plan, error) { panic("Then after a failed unit") }
	var ue *UnitError
	if _, err := (Engine{Workers: 2}).Run(p); !errors.As(err, &ue) || ue.Key != "unit-1" {
		t.Fatalf("error %v, want unit-1's", err)
	}
}

func TestStagedPlanStopSkipsFollowUps(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		staged := stagedPlan(2, 3, nil)
		then := staged.Then
		staged.Then = func(outs []any) (*Plan, error) {
			next, err := then(outs)
			for i := range next.Units {
				run := next.Units[i].Run
				next.Units[i].Run = func(s int64) (any, error) {
					ran.Add(1)
					return run(s)
				}
			}
			return next, err
		}
		// Plan 0 fails, so the stop lands before the staged plan's
		// first stage has started at one worker; at more workers it
		// may land anywhere, but follow-ups never start after it.
		gate := make(chan struct{})
		failing := &Plan{Seed: 1, Units: []Unit{{Key: "fail", Run: func(int64) (any, error) {
			close(gate)
			return nil, errors.New("stop here")
		}}}}
		staged.Units[0].Run = func(int64) (any, error) {
			<-gate
			return "x", nil
		}
		var calls []int
		Engine{Workers: workers}.RunEach([]*Plan{failing, staged}, func(i int, o Outcome) bool {
			calls = append(calls, i)
			return false
		})
		if len(calls) != 1 {
			t.Fatalf("workers=%d: callbacks %v, want one then stop", workers, calls)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("workers=1: %d follow-up units ran after the stop", ran.Load())
		}
	}
}

func TestStagedPlanCancelSkipsFollowUps(t *testing.T) {
	pool := NewPool(2, 0)
	defer pool.Close()
	for _, e := range []Engine{{Workers: 1}, {Workers: 4}, {Pool: pool}} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		p := sumPlan(1, 2)
		p.Reduce = nil
		p.Then = func(outs []any) (*Plan, error) {
			// Cancellation lands between the stages: every follow-up
			// unit must be skipped, never run.
			cancel()
			next := &Plan{Seed: 2}
			for i := 0; i < 5; i++ {
				next.Units = append(next.Units, Unit{Key: fmt.Sprintf("follow-%d", i), Run: func(int64) (any, error) {
					ran.Add(1)
					return nil, nil
				}})
			}
			return next, nil
		}
		var got Outcome
		err := e.RunEachContext(ctx, []*Plan{p}, func(_ int, o Outcome) bool {
			got = o
			return true
		})
		if !errors.Is(got.Err, ErrSkipped) {
			t.Fatalf("workers=%d pool=%v: outcome %v, want skipped follow-ups", e.Workers, e.Pool != nil, got.Err)
		}
		var ue *UnitError
		if !errors.As(got.Err, &ue) || ue.Key != "follow-0" {
			t.Fatalf("outcome %v does not name the first skipped follow-up", got.Err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d pool=%v: %d follow-up units ran after cancellation", e.Workers, e.Pool != nil, ran.Load())
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunEachContext = %v, want context.Canceled surfaced", err)
		}
	}
}

// TestStagedPlanRespectsWorkers probes concurrency: follow-up units
// share the engine's worker bound with everything else, and at one
// worker they run strictly one at a time.
func TestStagedPlanRespectsWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		probe := &inFlight{}
		plans := []*Plan{stagedPlan(1, 12, probe), stagedPlan(2, 12, probe)}
		for _, o := range (Engine{Workers: workers}).RunAll(plans) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		if probe.peak > workers || (workers == 1 && probe.peak != 1) {
			t.Fatalf("workers=%d: %d follow-up units in flight at once", workers, probe.peak)
		}
		if workers > 1 && probe.peak < 2 {
			t.Fatalf("workers=%d: follow-up units never overlapped", workers)
		}
	}
}
