package campaign

import (
	"errors"
	"fmt"
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

func TestRunAllMatchesIndividualRuns(t *testing.T) {
	plans := []*Plan{sumPlan(1, 13), sumPlan(2, 5), sumPlan(3, 31)}
	outcomes := Engine{Workers: 8}.RunAll(plans)
	for i, p := range plans {
		alone, err := Engine{Workers: 1}.Run(sumPlan(p.Seed, len(p.Units)))
		if err != nil {
			t.Fatal(err)
		}
		if outcomes[i].Err != nil {
			t.Fatalf("plan %d: %v", i, outcomes[i].Err)
		}
		if outcomes[i].Value != alone {
			t.Errorf("plan %d differs between RunAll and Run", i)
		}
	}
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
	var order []int
	Engine{Workers: 3}.RunEach(plans, func(i int, o Outcome) bool {
		if o.Err != nil {
			t.Fatalf("plan %d: %v", i, o.Err)
		}
		order = append(order, i)
		return true
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("delivery order = %v, want [0 1 2]", order)
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
// plan with the panic's message, on every engine, and leaves the
// other plans of the batch alone.
func TestReducePanicBecomesPlanError(t *testing.T) {
	pool := NewPool(2, 0)
	defer pool.Close()
	for _, e := range []Engine{{Workers: 1}, {Workers: 4}, {Pool: pool}} {
		p := sumPlan(1, 6)
		p.Reduce = func([]any) (any, error) { panic("search diverged") }
		outs := e.RunAll([]*Plan{p, sumPlan(2, 3)})
		if err := outs[0].Err; err == nil || !strings.Contains(err.Error(), "search diverged") {
			t.Fatalf("workers=%d pool=%v: outcome %v, want the reduce's panic", e.Workers, e.Pool != nil, err)
		}
		if outs[1].Err != nil {
			t.Fatalf("workers=%d pool=%v: the next plan failed too: %v", e.Workers, e.Pool != nil, outs[1].Err)
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
		for _, o := range (Engine{Workers: workers}).RunAll(plans) {
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
