package campaign

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sumPlan builds a plan whose units echo (index, seed) and whose
// reduce concatenates them in order, so any scheduling nondeterminism
// shows up in the reduced string.
func sumPlan(seed int64, n int) *Plan {
	p := &Plan{Seed: seed}
	for i := 0; i < n; i++ {
		i := i
		p.Units = append(p.Units, Unit{
			Key: fmt.Sprintf("unit-%d", i),
			Run: func(s int64) (any, error) {
				return fmt.Sprintf("%d:%d", i, s), nil
			},
		})
	}
	p.Reduce = func(outs []any) (any, error) {
		parts := make([]string, len(outs))
		for i, o := range outs {
			parts[i] = o.(string)
		}
		return strings.Join(parts, "|"), nil
	}
	return p
}

func TestDeriveIsStableAndSpreads(t *testing.T) {
	if Derive(42, 0, "k") != Derive(42, 0, "k") {
		t.Fatal("Derive must be a pure function")
	}
	seen := make(map[int64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := Derive(42, i, "k")
		if s < 0 {
			t.Fatalf("Derive(42, %d) = %d, want non-negative", i, s)
		}
		if seen[s] {
			t.Fatalf("Derive collision at index %d", i)
		}
		seen[s] = true
	}
	if Derive(1, 0, "k") == Derive(2, 0, "k") {
		t.Error("different campaign seeds should derive different unit seeds")
	}
	// Distinct unit keys at the same (seed, index) get distinct
	// streams, so overlapping grids in different experiments do not
	// replay each other.
	if Derive(42, 0, "table1/K80") == Derive(42, 0, "fig2/K80") {
		t.Error("different unit keys should derive different unit seeds")
	}
	// Identical keys share a stream on purpose: experiments that
	// declare the same measurement (the shared speed dataset) reuse
	// consistent draws for the same campaign seed.
	if Derive(42, 3, "speed/K80/ResNet-15") != Derive(42, 3, "speed/K80/ResNet-15") {
		t.Error("equal keys at equal positions must share a stream")
	}
}

func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	want, err := Engine{Workers: 1}.Run(sumPlan(7, 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, err := Engine{Workers: workers}.Run(sumPlan(7, 100))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d produced different output", workers)
		}
	}
}

// runAll runs plans as one batch and collects every outcome.
func runAll(e Engine, plans []*Plan) []Outcome {
	outs := make([]Outcome, len(plans))
	e.RunEach(plans, func(i int, o Outcome) bool {
		outs[i] = o
		return true
	})
	return outs
}

func TestRunEachMatchesIndividualRuns(t *testing.T) {
	plans := []*Plan{sumPlan(1, 13), sumPlan(2, 5), sumPlan(3, 31)}
	outcomes := runAll(Engine{Workers: 8}, plans)
	for i, p := range plans {
		alone, err := Engine{Workers: 1}.Run(sumPlan(p.Seed, len(p.Units)))
		if err != nil {
			t.Fatal(err)
		}
		if outcomes[i].Err != nil {
			t.Fatalf("plan %d: %v", i, outcomes[i].Err)
		}
		if outcomes[i].Value != alone {
			t.Errorf("plan %d differs between a batch and Run", i)
		}
	}
}

// deliveryOrder runs plans as one batch and returns the order done saw
// them in, with every error. done runs on a worker, where a test must
// not call FailNow, so it only records.
func deliveryOrder(e Engine, plans []*Plan) ([]int, error) {
	var order []int
	var errs []error
	dropped := e.RunEach(plans, func(i int, o Outcome) bool {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("plan %d: %w", i, o.Err))
		}
		order = append(order, i)
		return true
	})
	return order, errors.Join(append(errs, dropped)...)
}

func TestRunEachDeliversInDeclarationOrder(t *testing.T) {
	// Later plans are much cheaper than earlier ones, so completion
	// order inverts declaration order; delivery must not.
	mkPlan := func(seed int64, work int) *Plan {
		p := &Plan{Seed: seed}
		for u := 0; u < 4; u++ {
			p.Units = append(p.Units, Unit{
				Key: fmt.Sprintf("unit-%d", u),
				Run: func(s int64) (any, error) {
					x := uint64(s)
					for j := 0; j < work; j++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					return x, nil
				},
			})
		}
		p.Reduce = func(outs []any) (any, error) { return len(outs), nil }
		return p
	}
	plans := []*Plan{mkPlan(1, 200000), mkPlan(2, 2000), mkPlan(3, 20)}
	order, err := deliveryOrder(Engine{Workers: 3}, plans)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("delivery order = %v, want [0 1 2]", order)
	}
}

// TestReducesOfDifferentPlansOverlap: a plan reduces on the worker that
// retired it, so plan 0's Reduce can wait for plan 1's to start, and
// done still sees the plans in declaration order.
func TestReducesOfDifferentPlansOverlap(t *testing.T) {
	p0, p1 := sumPlan(1, 1), sumPlan(2, 1)
	started := make(chan struct{})
	reduce0, reduce1 := p0.Reduce, p1.Reduce
	p0.Reduce = func(outs []any) (any, error) {
		if err := await(started); err != nil {
			return nil, fmt.Errorf("plan 1's reduce never started: %w", err)
		}
		return reduce0(outs)
	}
	p1.Reduce = func(outs []any) (any, error) {
		close(started)
		return reduce1(outs)
	}
	order, err := deliveryOrder(Engine{Workers: 2}, []*Plan{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("delivery order = %v, want [0 1]", order)
	}
}

// await waits until ch is closed, for at most five seconds.
func await(ch chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-time.After(5 * time.Second):
		return errors.New("timed out")
	}
}

// stopBatch is three one-unit plans, a, b and c, for a batch whose done
// stops it when handed plan 0. At two workers, a waits until b has
// started and b until done has closed stopping, so plan 1 is in flight
// at the stop and retires after it, and a worker is free to take c only
// once the batch has stopped.
type stopBatch struct {
	plans    []*Plan
	stopping chan struct{}
	// retired counts b's finished runs, later c's started runs and
	// reduced the Reduce calls of plans 1 and 2.
	retired, later, reduced atomic.Int64
}

func newStopBatch(workers int) *stopBatch {
	sb := &stopBatch{stopping: make(chan struct{})}
	bStarted := make(chan struct{})
	gate := func(ch chan struct{}) error {
		if workers <= 1 {
			return nil
		}
		return await(ch)
	}
	reduce := func([]any) (any, error) {
		sb.reduced.Add(1)
		return nil, nil
	}
	sb.plans = []*Plan{
		{Seed: 1, Units: []Unit{{Key: "a", Run: func(int64) (any, error) {
			return nil, gate(bStarted)
		}}}},
		{Seed: 2, Reduce: reduce, Units: []Unit{{Key: "b", Run: func(int64) (any, error) {
			close(bStarted)
			defer sb.retired.Add(1)
			return nil, gate(sb.stopping)
		}}}},
		{Seed: 3, Reduce: reduce, Units: []Unit{{Key: "c", Run: func(int64) (any, error) {
			sb.later.Add(1)
			return nil, nil
		}}}},
	}
	return sb
}

// TestNoReduceAfterStop: once done returns false, no later plan's
// Reduce runs, not even that of a plan whose units were in flight at
// the stop and retire after it, and no unit starts.
func TestNoReduceAfterStop(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sb := newStopBatch(workers)
		var calls []int
		var errs []error
		err := Engine{Workers: workers}.RunEach(sb.plans, func(i int, o Outcome) bool {
			calls = append(calls, i)
			errs = append(errs, o.Err)
			close(sb.stopping)
			return false
		})
		if err := errors.Join(append(errs, err)...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(calls, []int{0}) {
			t.Fatalf("workers=%d: callbacks = %v, want [0] then stop", workers, calls)
		}
		if n := sb.retired.Load(); n != int64(workers-1) {
			t.Fatalf("workers=%d: plan 1's unit finished %d times, want %d", workers, n, workers-1)
		}
		if n := sb.reduced.Load(); n != 0 {
			t.Fatalf("workers=%d: plans 1 and 2 reduced %d times, want 0", workers, n)
		}
		if n := sb.later.Load(); n != 0 {
			t.Fatalf("workers=%d: plan 2's unit ran %d times, want 0", workers, n)
		}
	}
}

// TestDonePanicReachesCaller: a panic in done stops the batch like a
// false return, and comes out of RunEach on the calling goroutine once
// the unit in flight has retired.
func TestDonePanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sb := newStopBatch(workers)
		var got any
		func() {
			defer func() { got = recover() }()
			Engine{Workers: workers}.RunEach(sb.plans, func(i int, o Outcome) bool {
				close(sb.stopping)
				panic(fmt.Sprintf("done failed at plan %d", i))
			})
		}()
		if got != "done failed at plan 0" {
			t.Fatalf("workers=%d: recovered %v, want done's panic", workers, got)
		}
		if n := sb.retired.Load(); n != int64(workers-1) {
			t.Fatalf("workers=%d: plan 1's unit finished %d times before RunEach returned, want %d", workers, n, workers-1)
		}
		if n := sb.reduced.Load(); n != 0 {
			t.Fatalf("workers=%d: plans 1 and 2 reduced %d times, want 0", workers, n)
		}
		if n := sb.later.Load(); n != 0 {
			t.Fatalf("workers=%d: plan 2's unit ran %d times, want 0", workers, n)
		}
	}
}

func TestRunEachStopsOnFalse(t *testing.T) {
	var ran atomic.Int64
	mk := func(seed int64, fail bool) *Plan {
		p := &Plan{Seed: seed}
		p.Units = append(p.Units, Unit{
			Key: "only",
			Run: func(s int64) (any, error) {
				ran.Add(1)
				if fail {
					return nil, fmt.Errorf("deliberate")
				}
				return s, nil
			},
		})
		return p
	}
	plans := []*Plan{mk(1, false), mk(2, true), mk(3, false), mk(4, false)}
	var calls []int
	Engine{Workers: 1}.RunEach(plans, func(i int, o Outcome) bool {
		calls = append(calls, i)
		return o.Err == nil
	})
	if len(calls) != 2 || calls[1] != 1 {
		t.Fatalf("callbacks = %v, want [0 1] then stop", calls)
	}
	// With one worker the stop lands before the later plans start, so
	// their units are skipped.
	if got := ran.Load(); got != 2 {
		t.Fatalf("units executed = %d, want 2 (later plans skipped)", got)
	}
}

func TestFirstUnitErrorWinsDeterministically(t *testing.T) {
	p := &Plan{Seed: 5}
	for i := 0; i < 20; i++ {
		i := i
		p.Units = append(p.Units, Unit{
			Key: fmt.Sprintf("unit-%d", i),
			Run: func(s int64) (any, error) {
				if i%2 == 1 {
					return nil, fmt.Errorf("boom %d", i)
				}
				return i, nil
			},
		})
	}
	for _, workers := range []int{1, 8} {
		_, err := Engine{Workers: workers}.Run(p)
		var ue *UnitError
		if !errors.As(err, &ue) {
			t.Fatalf("workers=%d: error %v is not a UnitError", workers, err)
		}
		if ue.Index != 1 || ue.Key != "unit-1" {
			t.Errorf("workers=%d: reported unit %d (%s), want the first failure in declaration order",
				workers, ue.Index, ue.Key)
		}
	}
}

func TestPanicBecomesUnitError(t *testing.T) {
	p := &Plan{
		Seed: 9,
		Units: []Unit{{
			Key: "panicky",
			Run: func(s int64) (any, error) { panic("kaboom") },
		}},
	}
	_, err := Engine{Workers: 4}.Run(p)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// TestReducePanicBecomesPlanError: a panic in Reduce fails its own
// plan with the panic's message, at every worker count, and leaves the
// other plans of the batch alone.
func TestReducePanicBecomesPlanError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := sumPlan(1, 6)
		p.Reduce = func([]any) (any, error) { panic("search diverged") }
		outs := runAll(Engine{Workers: workers}, []*Plan{p, sumPlan(2, 3)})
		if err := outs[0].Err; err == nil || !strings.Contains(err.Error(), "search diverged") {
			t.Fatalf("workers=%d: outcome %v, want the reduce's panic", workers, err)
		}
		if outs[1].Err != nil {
			t.Fatalf("workers=%d: the next plan failed too: %v", workers, outs[1].Err)
		}
	}
}

// The deprecated RunScratch takes precedence over Run.
func TestRunScratchPrecedence(t *testing.T) {
	p := &Plan{
		Seed: 1,
		Units: []Unit{{
			Key: "u",
			Run: func(seed int64) (any, error) {
				return nil, fmt.Errorf("plain Run must not be called when RunScratch is set")
			},
			RunScratch: func(seed int64, s *Scratch) (any, error) {
				if s == nil {
					return nil, fmt.Errorf("nil scratch")
				}
				return seed, nil
			},
		}},
	}
	out, err := Engine{Workers: 1}.Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.([]any)[0].(int64) != Derive(1, 0, "u") {
		t.Fatalf("unexpected seed output %v", out)
	}
}

// A panicking RunScratch unit fails its campaign like a panicking Run
// unit.
func TestRunScratchPanicRecovered(t *testing.T) {
	p := &Plan{
		Seed: 5,
		Units: []Unit{{
			Key:        "boom",
			RunScratch: func(seed int64, s *Scratch) (any, error) { panic("kaboom") },
		}},
	}
	_, err := Engine{Workers: 1}.Run(p)
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Key != "boom" {
		t.Fatalf("expected UnitError for 'boom', got %v", err)
	}
}

func TestNilReduceReturnsOrderedOutputs(t *testing.T) {
	p := sumPlan(11, 10)
	p.Reduce = nil
	v, err := Engine{Workers: 4}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	outs := v.([]any)
	for i, o := range outs {
		if !strings.HasPrefix(o.(string), fmt.Sprintf("%d:", i)) {
			t.Fatalf("outs[%d] = %v out of order", i, o)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	p := &Plan{Seed: 1, Reduce: func(outs []any) (any, error) { return len(outs), nil }}
	v, err := Engine{Workers: 8}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 0 {
		t.Fatalf("empty plan reduced to %v", v)
	}
}

// TestPoolRunsConcurrently exercises the worker pool under the race
// detector: units touch shared atomics and the engine must still
// aggregate by index.
func TestPoolRunsConcurrently(t *testing.T) {
	var peak, inFlight atomic.Int64
	p := &Plan{Seed: 3}
	const n = 200
	for i := 0; i < n; i++ {
		p.Units = append(p.Units, Unit{
			Key: fmt.Sprintf("unit-%d", i),
			Run: func(s int64) (any, error) {
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				// A little real work so goroutines overlap.
				x := uint64(s)
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				inFlight.Add(-1)
				return x, nil
			},
		})
	}
	p.Reduce = func(outs []any) (any, error) { return len(outs), nil }
	v, err := Engine{Workers: 8}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != n {
		t.Fatalf("reduced %v units, want %d", v, n)
	}
	if peak.Load() < 1 {
		t.Error("pool never ran a unit")
	}
}

func TestWorkersDefaultAndClamp(t *testing.T) {
	// Zero and negative worker counts fall back to GOMAXPROCS; more
	// workers than units must not deadlock or drop units.
	for _, workers := range []int{0, -3, 64} {
		v, err := Engine{Workers: workers}.Run(sumPlan(13, 3))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !strings.HasPrefix(v.(string), "0:") {
			t.Fatalf("workers=%d: unexpected output %v", workers, v)
		}
	}
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

// TestRunRespectsWorkers probes concurrency: Workers bounds the units
// in flight across every plan of a batch, and at one worker they run
// strictly one at a time.
func TestRunRespectsWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		probe := &inFlight{}
		plans := []*Plan{sumPlan(1, 12), sumPlan(2, 12)}
		for _, p := range plans {
			for i := range p.Units {
				run := p.Units[i].Run
				p.Units[i].Run = func(s int64) (any, error) {
					defer probe.enter()()
					time.Sleep(time.Millisecond)
					return run(s)
				}
			}
		}
		for _, o := range runAll(Engine{Workers: workers}, plans) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		if probe.peak > workers || (workers == 1 && probe.peak != 1) {
			t.Fatalf("workers=%d: %d units in flight at once", workers, probe.peak)
		}
		if workers > 1 && probe.peak < 2 {
			t.Fatalf("workers=%d: units never overlapped", workers)
		}
	}
}
