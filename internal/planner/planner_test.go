package planner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
)

// fakeMeasure replaces the real simulation with a deterministic pure
// function of the scenario, counting invocations. It is the planner
// tests' probe for "how many simulations actually ran".
func fakeMeasure(sims *atomic.Int64) func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
	return func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		sims.Add(1)
		return experiments.ScenarioOutcome{
			Scenario:        sc,
			TrainingSeconds: 36000 / float64(sc.Workers),
			SteadySpeed:     float64(sc.Workers),
			CostUSD:         100 * float64(sc.Workers),
		}, nil
	}
}

func testQuery(seed int64) ScenarioQuery {
	return ScenarioQuery{
		Model: "ResNet-15", GPU: "K80", Region: "us-central1", Tier: "on-demand",
		Workers: 1, TargetSteps: 100, Seed: seed,
	}
}

// TestConcurrentIdenticalQueriesRunOneSimulation is the singleflight
// guarantee: sixteen identical queries in flight at once must cost
// exactly one simulation, with the other fifteen coalesced.
func TestConcurrentIdenticalQueriesRunOneSimulation(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	release := make(chan struct{})
	inner := fakeMeasure(&sims)
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		<-release
		return inner(sc, steps, ic, seed, trace)
	}

	const callers = 16
	q := testQuery(7)
	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[c], errs[c] = p.Measure(context.Background(), q)
		}()
	}
	// Rendezvous: wait until all fifteen followers have joined the
	// leader, so none of them can be served by the cache instead.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Coalesced != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined, want %d", p.Stats().Coalesced, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if outcomes[c].CostUSD != outcomes[0].CostUSD || outcomes[c].Key != outcomes[0].Key {
			t.Fatalf("caller %d got a different outcome", c)
		}
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations ran, want exactly 1", n)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Coalesced != callers-1 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, callers-1)
	}
}

// TestFailedSimulationIsSharedNotCached: identical queries that join a
// simulation failing on its own terms share its one run and its error;
// nothing is cached, no rejection is counted, and the next query
// simulates again.
func TestFailedSimulationIsSharedNotCached(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	release := make(chan struct{})
	errWeek := errors.New("did not finish within a week of virtual time")
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		sims.Add(1)
		<-release
		return experiments.ScenarioOutcome{}, errWeek
	}

	const callers = 4
	q := testQuery(5)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[c] = p.Measure(context.Background(), q)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Coalesced != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined, want %d", p.Stats().Coalesced, callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for c, err := range errs {
		if !errors.Is(err, errWeek) {
			t.Fatalf("caller %d: got %v, want the shared simulation error", c, err)
		}
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations ran, want exactly 1", n)
	}
	st := p.Stats()
	if st.Misses != 1 || st.Coalesced != callers-1 || st.Hits != 0 || st.Rejections != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d coalesced, no rejection and nothing cached", st, callers-1)
	}
	if _, err := p.Measure(context.Background(), q); !errors.Is(err, errWeek) {
		t.Fatalf("repeated query: got %v, want the simulation error again", err)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("%d simulations ran, want 2: a failure must not be cached", n)
	}
	if st := p.Stats(); st.Misses != 2 || st.Hits != 0 || st.Rejections != 0 {
		t.Fatalf("stats = %+v after the repeat, want 2 misses, no hit and no rejection", st)
	}
}

// TestRepeatedDefaultSweepIsServedFromCache is the headline acceptance
// property: answering the same DefaultSweep query twice costs exactly
// one set of simulations; the second pass is all cache hits.
func TestRepeatedDefaultSweepIsServedFromCache(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 256})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)

	spec := experiments.DefaultSweep()
	grid := len(spec.Scenarios())
	if grid == 0 {
		t.Fatal("DefaultSweep has an empty grid")
	}
	runSweep := func() []SweepItem {
		var items []SweepItem
		if err := p.Sweep(context.Background(), spec, 42, func(it SweepItem) error {
			items = append(items, it)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return items
	}

	first := runSweep()
	if len(first) != grid {
		t.Fatalf("first sweep emitted %d items, want %d", len(first), grid)
	}
	if n := sims.Load(); n != int64(grid) {
		t.Fatalf("first sweep ran %d simulations, want %d", n, grid)
	}
	second := runSweep()
	if n := sims.Load(); n != int64(grid) {
		t.Fatalf("repeated sweep ran %d additional simulations, want 0", n-int64(grid))
	}
	for i, it := range second {
		if it.Err != "" {
			t.Fatalf("item %d failed: %s", i, it.Err)
		}
		if !it.Outcome.Cached {
			t.Fatalf("item %d was not served from cache", i)
		}
		if it.Index != i || it.Total != grid {
			t.Fatalf("item %d mislabeled: %+v", i, it)
		}
	}
	if st := p.Stats(); st.Hits != int64(grid) {
		t.Fatalf("stats = %+v, want %d hits", st, grid)
	}
}

// TestSweepStreamsInGridOrder pins the incremental contract: items
// arrive indexed 0..n-1 in order regardless of completion order.
func TestSweepStreamsInGridOrder(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 64})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	spec := experiments.DefaultSweep()
	var got []int
	if err := p.Sweep(context.Background(), spec, 1, func(it SweepItem) error {
		got = append(got, it.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("stream order %v is not grid order", got)
		}
	}
}

// TestCacheEvictionUnderLoad hammers a tiny cache with distinct
// concurrent queries: the cache must hold its bound, count every
// eviction, and evicted entries must cost a fresh simulation.
func TestCacheEvictionUnderLoad(t *testing.T) {
	const capacity = 4
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: capacity})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)

	const distinct = 32
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Measure(context.Background(), testQuery(int64(i))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := p.Stats()
	if st.CacheEntries != capacity {
		t.Fatalf("cache holds %d entries, want bound %d", st.CacheEntries, capacity)
	}
	if st.Misses != distinct || st.Evictions != distinct-capacity {
		t.Fatalf("stats = %+v, want %d misses and %d evictions", st, distinct, distinct-capacity)
	}
	// An evicted seed must re-simulate; under LRU with sequential
	// re-insertion the set is full of recent seeds, so seed 0 (whatever
	// its eviction order) either hits or re-runs — querying all 32
	// again must leave exactly the bound cached and never exceed one
	// simulation per (key, generation).
	before := sims.Load()
	for i := 0; i < distinct; i++ {
		if _, err := p.Measure(context.Background(), testQuery(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	after := sims.Load()
	if after-before < distinct-capacity {
		t.Fatalf("re-querying after eviction re-ran only %d simulations, want ≥ %d", after-before, distinct-capacity)
	}
	if got := p.Stats().CacheEntries; got != capacity {
		t.Fatalf("cache grew past its bound: %d > %d", got, capacity)
	}
}

// TestSweepCancellationStopsDispatch cancels a sweep from inside its
// third simulation: with one pool worker serializing the sims, every
// scenario not yet started must be skipped, never simulated.
func TestSweepCancellationStopsDispatch(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 64})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sims atomic.Int64
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		if sims.Add(1) == 3 {
			// Cancellation lands while this simulation is in flight; it
			// finishes, everything behind it in the queue is skipped.
			cancel()
		}
		return experiments.ScenarioOutcome{Scenario: sc, TrainingSeconds: 1, SteadySpeed: 1, CostUSD: 1}, nil
	}

	spec := experiments.DefaultSweep()
	total := len(spec.Scenarios())
	if total <= 3 {
		t.Fatalf("grid of %d scenarios is too small for this test", total)
	}
	err := p.Sweep(ctx, spec, 9, func(it SweepItem) error { return nil })
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep returned %v, want nil or context.Canceled", err)
	}
	if n := sims.Load(); n != 3 {
		t.Fatalf("cancellation mid-sweep ran %d simulations, want exactly 3 (the in-flight one finishes, the rest skip)", n)
	}
}

// TestSweepStopsWhenEmitFails models a client that disconnected
// mid-stream: emit's error must end the sweep.
func TestSweepStopsWhenEmitFails(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 64})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	boom := fmt.Errorf("client went away")
	err := p.Sweep(context.Background(), experiments.DefaultSweep(), 3, func(it SweepItem) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Sweep returned %v, want the emit error", err)
	}
}

// TestSimulationSeedIsPureFunctionOfCacheKey pins the coherence
// argument: the seed a simulation receives is campaign.Derive(query
// seed, 0, canonical scenario key), so equal cache keys are equal
// outcomes by construction, however the query was phrased.
func TestSimulationSeedIsPureFunctionOfCacheKey(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 8})
	defer p.Close()
	var gotSeed atomic.Int64
	var sims atomic.Int64
	inner := fakeMeasure(&sims)
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		gotSeed.Store(seed)
		return inner(sc, steps, ic, seed, trace)
	}
	q := testQuery(42)
	if _, err := p.Measure(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	sc, steps, ic, err := q.scenario()
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.Derive(q.Seed, 0, experiments.ScenarioKey(sc, steps, ic))
	if gotSeed.Load() != want {
		t.Fatalf("simulation seed %d is not Derive(seed, 0, scenario key) = %d", gotSeed.Load(), want)
	}

	// The same scenario reached through a one-cell sweep grid shares
	// the cache line: no second simulation.
	spec := experiments.SweepSpec{
		Model: sc.Model, Sizes: []int{1}, GPUs: []model.GPU{sc.GPU}, Regions: []cloud.Region{sc.Region},
		Tiers: []cloud.Tier{sc.Tier}, StepsPerWorker: steps, CheckpointInterval: ic,
	}
	var cached bool
	if err := p.Sweep(context.Background(), spec, q.Seed, func(it SweepItem) error {
		cached = it.Outcome != nil && it.Outcome.Cached
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !cached || sims.Load() != 1 {
		t.Fatalf("one-cell sweep re-simulated (sims=%d, cached=%v); cache key is not grid-independent", sims.Load(), cached)
	}
}

// TestCheapestPicksCheapestFeasible checks deadline filtering, cost
// ranking, and failure accounting on an engineered grid.
func TestCheapestPicksCheapestFeasible(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 64})
	defer p.Close()
	var sims atomic.Int64
	inner := fakeMeasure(&sims)
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		if sc.Tier == cloud.Transient {
			return experiments.ScenarioOutcome{}, fmt.Errorf("did not finish within a week")
		}
		// workers=1 → 10 h, $100; workers=2 → 5 h, $200.
		return inner(sc, steps, ic, seed, trace)
	}
	q := CheapestQuery{
		GridQuery: GridQuery{
			Model: "ResNet-15", Sizes: []int{1, 2}, GPUs: []string{"K80"},
			Regions: []string{"us-central1"}, Tiers: []string{"on-demand", "transient"},
		},
		TargetSteps: 1000, DeadlineHours: 6, Seed: 5,
	}
	res, err := p.Cheapest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 4 || res.Failed != 2 || res.Feasible != 1 {
		t.Fatalf("result = %+v, want 4 considered, 2 failed, 1 feasible", res)
	}
	if res.Best == nil || res.Best.Scenario != "2×K80 us-central1 on-demand" {
		t.Fatalf("best = %+v, want the 2-worker on-demand cell", res.Best)
	}

	// Without a deadline the slower, cheaper cell wins.
	q.DeadlineHours = 0
	res, err = p.Cheapest(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Scenario != "1×K80 us-central1 on-demand" {
		t.Fatalf("best without deadline = %+v, want the 1-worker cell", res.Best)
	}
}

// TestCanceledLeaderDoesNotPoisonFollowers pins the singleflight
// failure mode: a leader whose request dies before its unit runs must
// not hand its cancellation to a healthy follower — the follower
// retries and gets a real measurement.
func TestCanceledLeaderDoesNotPoisonFollowers(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 8})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)

	// Occupy the single worker so the leader's unit sits in the queue,
	// where cancellation can still skip it.
	decoy, decoyRunning, decoyDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := p.pool.Run(context.Background(), 0, campaign.Unit{Key: "decoy", Run: func(int64) (any, error) {
			close(decoyRunning)
			<-decoy
			return nil, nil
		}})
		decoyDone <- err
	}()
	<-decoyRunning

	q := testQuery(3)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.Measure(leaderCtx, q)
		leaderErr <- err
	}()
	// Only start the follower once the cancelable caller has claimed
	// the key, so the roles cannot swap.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Misses != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never claimed the key")
		}
		time.Sleep(time.Millisecond)
	}
	followerOut := make(chan Outcome, 1)
	followerErr := make(chan error, 1)
	go func() {
		out, err := p.Measure(context.Background(), q)
		followerOut <- out
		followerErr <- err
	}()
	// Wait until the follower has joined the leader.
	for p.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	close(decoy) // the worker slot frees for the follower's retry

	if err := <-leaderErr; err == nil ||
		!(errors.Is(err, campaign.ErrSkipped) || errors.Is(err, context.Canceled)) {
		t.Fatalf("canceled leader returned %v, want its own cancellation", err)
	}
	if err := <-followerErr; err != nil {
		t.Fatalf("healthy follower inherited the leader's cancellation: %v", err)
	}
	if out := <-followerOut; out.Scenario == "" {
		t.Fatal("follower got an empty outcome")
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations ran, want 1 (the follower's retry)", n)
	}
	if err := <-decoyDone; err != nil {
		t.Fatal(err)
	}
}

// TestMeasureAfterCloseIsRejected: a query on a closed planner fails
// with an error that wraps both the closed pool and the skip, and
// counts as a rejection, not a failed scenario.
func TestMeasureAfterCloseIsRejected(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	p.Close()

	q := testQuery(1)
	sc, steps, ic, err := q.scenario()
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Measure(context.Background(), q)
	if !errors.Is(err, campaign.ErrPoolClosed) || !errors.Is(err, campaign.ErrSkipped) {
		t.Fatalf("Measure after Close = %v, want ErrPoolClosed and ErrSkipped wrapped", err)
	}
	want := fmt.Sprintf("unit 0 (%s): campaign: unit skipped: campaign: pool closed", experiments.ScenarioKey(sc, steps, ic))
	if err.Error() != want {
		t.Fatalf("error text %q, want %q", err.Error(), want)
	}
	if st := p.Stats(); st.Rejections != 1 || st.PoolJobsRun != 0 || sims.Load() != 0 {
		t.Fatalf("stats = %+v after %d simulations, want one rejection and nothing run", st, sims.Load())
	}
}

// TestQueryBounds rejects fan-out beyond the per-query limits before
// any goroutine or placement slice is allocated.
func TestQueryBounds(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	q := testQuery(1)
	q.Workers = maxWorkersPerScenario + 1
	var e *BadRequestError
	if _, err := p.Measure(context.Background(), q); !errors.As(err, &e) {
		t.Errorf("oversized workers: got %v, want BadRequestError", err)
	}

	// A grid that expands past maxGridCells is refused at Spec time.
	big := SweepQuery{GridQuery: GridQuery{Sizes: make([]int, 400)}}
	for i := range big.Sizes {
		big.Sizes[i] = 1
	}
	if _, err := big.Spec(); err == nil {
		t.Error("oversized sweep grid accepted")
	}
	cq := CheapestQuery{GridQuery: big.GridQuery, TargetSteps: 10}
	if _, err := p.Cheapest(context.Background(), cq); !errors.As(err, &e) {
		t.Error("oversized cheapest grid accepted")
	}

	// An oversized per-cell size is refused even in a small grid.
	small := SweepQuery{GridQuery: GridQuery{Sizes: []int{maxWorkersPerScenario + 1}}}
	if _, err := small.Spec(); err == nil {
		t.Error("oversized cluster size accepted")
	}
}

// TestQueryValidation maps malformed queries to BadRequestError.
func TestQueryValidation(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	bad := []ScenarioQuery{
		{Model: "NoSuchNet", GPU: "K80", Region: "us-central1", Tier: "on-demand", Workers: 1, TargetSteps: 1},
		{Model: "ResNet-15", GPU: "H100", Region: "us-central1", Tier: "on-demand", Workers: 1, TargetSteps: 1},
		{Model: "ResNet-15", GPU: "K80", Region: "mars-north1", Tier: "on-demand", Workers: 1, TargetSteps: 1},
		{Model: "ResNet-15", GPU: "K80", Region: "us-central1", Tier: "spot", Workers: 1, TargetSteps: 1},
		{Model: "ResNet-15", GPU: "V100", Region: "us-east1", Tier: "on-demand", Workers: 1, TargetSteps: 1}, // unoffered cell
		{Model: "ResNet-15", GPU: "K80", Region: "us-central1", Tier: "on-demand", Workers: 0, TargetSteps: 1},
		{Model: "ResNet-15", GPU: "K80", Region: "us-central1", Tier: "on-demand", Workers: 1, TargetSteps: 0},
	}
	for i, q := range bad {
		var e *BadRequestError
		if _, err := p.Measure(context.Background(), q); !errors.As(err, &e) {
			t.Errorf("query %d: got %v, want BadRequestError", i, err)
		}
	}
}

// TestLRURecency pins the eviction policy details the service relies
// on: a hit refreshes recency, the third insert into a two-entry table
// evicts the least recent entry, and a failed flight is not cached.
func TestLRURecency(t *testing.T) {
	c := newResults(2)
	mustLead := func(key string) *result {
		t.Helper()
		r, hit, lead := c.claim(key)
		if hit || !lead {
			t.Fatalf("claim(%q) = hit %v, lead %v; want a new flight", key, hit, lead)
		}
		return r
	}
	mustHit := func(key string) any {
		t.Helper()
		r, hit, _ := c.claim(key)
		if !hit {
			t.Fatalf("claim(%q) missed a cached entry", key)
		}
		return r.val
	}
	c.finish(mustLead("a"), 1, nil)
	c.finish(mustLead("b"), 2, nil)
	mustHit("a") // refresh: b is now the least recent
	if evicted := c.finish(mustLead("d"), 3, nil); !evicted {
		t.Fatal("third insert into a 2-entry table must evict")
	}
	if got := mustHit("a"); got != 1 {
		t.Fatalf("refreshed entry holds %v, want 1", got)
	}
	mustHit("d")

	// b was the victim, so claiming it leads a new flight, and a second
	// claim follows that flight.
	failed := mustLead("b")
	if r, hit, lead := c.claim("b"); hit || lead || r != failed {
		t.Fatal("a claim on an in-flight key must follow its flight")
	}
	boom := errors.New("boom")
	if evicted := c.finish(failed, nil, boom); evicted {
		t.Fatal("a failed flight must not evict")
	}
	<-failed.done
	if !errors.Is(failed.err, boom) {
		t.Fatalf("flight error %v, want %v", failed.err, boom)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("%d cached entries after a failed flight, want 2", n)
	}
	mustLead("b") // the failure was not cached: the next caller leads again
}
