package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/stats"
)

func testWorkload(arrival ArrivalProcess) WorkloadSpec {
	return WorkloadSpec{
		Jobs:               6,
		Arrival:            arrival,
		RatePerHour:        3,
		StepsPerWorker:     2000,
		CheckpointInterval: 1000,
	}
}

// tightCapacity caps every offered cell at n slots.
func tightCapacity(n int) cloud.Capacity {
	cap := cloud.Capacity{}
	for _, g := range model.AllGPUs() {
		for _, r := range cloud.OfferedRegions(g) {
			cap[cloud.PoolKey{Region: r, GPU: g}] = n
		}
	}
	return cap
}

func TestWorkloadGenerationIsDeterministic(t *testing.T) {
	for _, arrival := range ArrivalProcesses() {
		spec := testWorkload(arrival)
		a, err := spec.Generate(stats.NewRng(7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Generate(stats.NewRng(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different job streams", arrival)
		}
		c, _ := spec.Generate(stats.NewRng(8))
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical job streams", arrival)
		}
		last := 0.0
		for i, j := range a {
			if j.ID != i {
				t.Fatalf("job %d has ID %d", i, j.ID)
			}
			if j.ArrivalSeconds <= last {
				t.Fatalf("job %d arrival %.1f not after %.1f", i, j.ArrivalSeconds, last)
			}
			last = j.ArrivalSeconds
			if j.DeadlineHours <= 0 || j.BudgetUSD <= 0 || j.Steps <= 0 {
				t.Fatalf("job %d has degenerate deadline/budget/steps: %+v", i, j)
			}
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	bad := []WorkloadSpec{
		{},
		{Jobs: 1, RatePerHour: -1, StepsPerWorker: 10},
		{Jobs: 1, RatePerHour: 1},
		{Jobs: 1, RatePerHour: 1, StepsPerWorker: 10, Arrival: "fractal"},
		{Jobs: 1, RatePerHour: 1, StepsPerWorker: 10, CheckpointInterval: -1},
	}
	for i, w := range bad {
		if _, err := w.Generate(stats.NewRng(1)); err == nil {
			t.Errorf("case %d: invalid workload accepted: %+v", i, w)
		}
	}
}

func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	if len(names) < 3 {
		t.Fatalf("want at least 3 registered schedulers, have %v", names)
	}
	if names[0] != DefaultSchedulerName {
		t.Fatalf("default %q must list first, got %v", DefaultSchedulerName, names)
	}
	for _, want := range []string{"fifo", "cost-greedy", "deadline-aware"} {
		if _, err := LookupScheduler(want); err != nil {
			t.Errorf("builtin %q missing: %v", want, err)
		}
	}
	if s, err := LookupScheduler(""); err != nil || s.Name() != DefaultSchedulerName {
		t.Fatalf("empty name should resolve the default, got %v, %v", s, err)
	}
	if _, err := LookupScheduler("round-robin-3000"); err == nil {
		t.Fatal("unknown scheduler should not resolve")
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("re-registering a builtin name must panic (first come wins)")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, `"fifo"`) {
				t.Fatalf("duplicate-registration panic %q does not name the offender", msg)
			}
		}()
		schedulers.Register("fifo", fifoScheduler{})
	}()
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{
		Workload:     testWorkload(ArrivalPoisson),
		Scheduler:    "cost-greedy",
		Capacity:     tightCapacity(4),
		HorizonHours: 24,
	}
	a, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (config, seed) produced different fleet results")
	}
	c, err := Run(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fleet results")
	}
}

// TestPoolCapacityNeverExceeded is the fleet's safety property: under
// every scheduler and heavy contention, no constrained cell's
// concurrent occupancy may ever exceed its configured slots. PeakInUse
// reconstructs occupancy from the full instance record, so a single
// overdraft anywhere in the run would surface.
func TestPoolCapacityNeverExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheduler fleet campaign in -short mode")
	}
	cap := tightCapacity(2)
	for _, sched := range SchedulerNames() {
		for _, seed := range []int64{1, 2, 3} {
			cfg := Config{
				Workload:     testWorkload(ArrivalBursty),
				Scheduler:    sched,
				Capacity:     cap,
				HorizonHours: 24,
			}
			res, err := Run(cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sched, seed, err)
			}
			for cell, peak := range res.PeakInUse {
				key, err := cloud.ParsePoolKey(cell)
				if err != nil {
					t.Fatalf("unparseable peak cell %q", cell)
				}
				if limit := cap[key]; limit > 0 && peak > limit {
					t.Errorf("%s seed %d: cell %s peaked at %d with capacity %d", sched, seed, cell, peak, limit)
				}
			}
		}
	}
}

// TestFifoHeadOfLineBlocks pins the baseline's defining pathology: a
// head job that fits nowhere blocks the whole queue, even when later
// jobs would fit.
func TestFifoHeadOfLineBlocks(t *testing.T) {
	cell := cloud.PoolKey{Region: cloud.USCentral1, GPU: model.K80}
	pool := fakePool{avail: map[cloud.PoolKey]int{cell: 2}}
	big := &Job{Spec: JobSpec{ID: 0, Model: model.ResNet15(), GPU: model.K80, Workers: 4, Steps: 100}}
	small := &Job{Spec: JobSpec{ID: 1, Model: model.ResNet15(), GPU: model.K80, Workers: 1, Steps: 100}}
	s, err := LookupScheduler("fifo")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Pick([]*Job{big, small}, pool); ok {
		t.Fatal("fifo admitted past a blocked head")
	}
	if idx, pl, ok := s.Pick([]*Job{small, big}, pool); !ok || idx != 0 || pl.Tier != cloud.Transient {
		t.Fatalf("fifo refused a feasible head: idx=%d pl=%v ok=%v", idx, pl, ok)
	}
}

// fakePool is a one-market View where only the listed cells have
// capacity; every other cell is full (0 free). The market is gce unless
// spec names another.
type fakePool struct {
	avail map[cloud.PoolKey]int
	now   float64
	spec  *cloud.ProviderSpec
}

func (f fakePool) NowHours() float64 { return f.now }
func (f fakePool) Markets() []string { return []string{f.Spec("").Name} }

func (f fakePool) Spec(string) *cloud.ProviderSpec {
	if f.spec == nil {
		return cloud.DefaultProvider()
	}
	return f.spec
}

func (f fakePool) Available(_ string, r cloud.Region, g model.GPU) int {
	if n, ok := f.avail[cloud.PoolKey{Region: r, GPU: g}]; ok {
		return n
	}
	return 0
}

func (f fakePool) Churning(string, cloud.Region) bool { return false }
func (f fakePool) Observed() *History                 { return &History{} }

// TestCostGreedyPricesFromItsMarketsBook pins cost-greedy to the price
// book of the market it places in. With room everywhere, ResNet-15 × 4
// is cheapest per step on K80 by gce's book but on P100 by aws's.
func TestCostGreedyPricesFromItsMarketsBook(t *testing.T) {
	s, err := LookupScheduler("cost-greedy")
	if err != nil {
		t.Fatal(err)
	}
	aws, err := cloud.LookupProvider("aws")
	if err != nil {
		t.Fatal(err)
	}
	room := map[cloud.PoolKey]int{}
	for _, g := range model.AllGPUs() {
		for _, r := range cloud.AllRegions() {
			room[cloud.PoolKey{Region: r, GPU: g}] = -1
		}
	}
	job := &Job{Spec: JobSpec{ID: 0, Model: model.ResNet15(), GPU: model.K80, Workers: 4, Steps: 100}}
	for _, c := range []struct {
		spec *cloud.ProviderSpec
		want model.GPU
	}{{cloud.DefaultProvider(), model.K80}, {aws, model.P100}} {
		_, pl, ok := s.Pick([]*Job{job}, fakePool{avail: room, spec: c.spec})
		if !ok || pl.GPU != c.want || pl.Market != "" {
			t.Errorf("%s book: placed %v (ok=%v), want %v in the default market", c.spec.Name, pl, ok, c.want)
		}
	}
}

// TestDeadlineAwareFallsBackToOnDemand pins the escape hatch: with no
// transient room anywhere and the deadline closing in, the most urgent
// job starts on-demand instead of waiting forever.
func TestDeadlineAwareFallsBackToOnDemand(t *testing.T) {
	s, err := LookupScheduler("deadline-aware")
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{Spec: JobSpec{ID: 0, Model: model.ResNet15(), GPU: model.K80, Workers: 1, Steps: 34000}}
	job.Spec.DeadlineHours = job.Spec.OptimisticHours(model.K80) * 2
	pool := fakePool{avail: map[cloud.PoolKey]int{}} // everything full

	// Far from the deadline: keep waiting for a transient slot.
	if _, _, ok := s.Pick([]*Job{job}, pool); ok {
		t.Fatal("fell back to on-demand with plenty of slack")
	}
	// Past the last responsible moment: buy on-demand.
	pool.now = job.Spec.DeadlineAtHours() - job.Spec.OptimisticHours(model.K80)*1.05
	idx, pl, ok := s.Pick([]*Job{job}, pool)
	if !ok || idx != 0 || pl.Tier != cloud.OnDemand {
		t.Fatalf("no on-demand fallback at the last responsible moment: idx=%d pl=%v ok=%v", idx, pl, ok)
	}
}

// TestDeadlineFallbackFiresOnAQuietQueue is the regression test for
// the time-driven wake-up: with every cell capped at 2 slots, a
// 4-worker job fits no transient cell, and once arrivals stop nothing
// else re-opens admission — only the Waker re-check can start it
// on-demand. Before the wake-up existed such jobs sat queued past
// their deadlines until the horizon.
func TestDeadlineFallbackFiresOnAQuietQueue(t *testing.T) {
	// Several workload seeds, each containing at least one 4-worker
	// job, so the assertion cannot pass on one seed's favorable float
	// rounding at the wake boundary.
	for _, wseed := range []int64{1, 2, 3, 9} {
		cfg := Config{
			Workload:     WorkloadSpec{Jobs: 3, RatePerHour: 6, StepsPerWorker: 2000},
			Scheduler:    "deadline-aware",
			Capacity:     tightCapacity(2),
			HorizonHours: 48,
			WorkloadSeed: wseed,
		}
		res, err := Run(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		fourWorker := 0
		for _, jr := range res.Jobs {
			if jr.Workers != 4 {
				continue
			}
			fourWorker++
			if !jr.Done {
				t.Errorf("wseed %d: %s never ran: the on-demand fallback did not fire on a quiet queue", wseed, jr.Label)
				continue
			}
			if !strings.Contains(jr.Placement, "on-demand") {
				t.Errorf("wseed %d: %s ran as %q, want an on-demand fallback placement", wseed, jr.Label, jr.Placement)
			}
			if jr.EndHours >= cfg.HorizonHours {
				t.Errorf("wseed %d: %s only finished at the horizon", wseed, jr.Label)
			}
		}
		if fourWorker == 0 {
			t.Errorf("wseed %d: workload has no 4-worker job; the test lost its teeth", wseed)
		}
	}
}

func TestConfigKeyCanonicalizesDefaults(t *testing.T) {
	implicit := Config{Workload: WorkloadSpec{Jobs: 4, RatePerHour: 2, StepsPerWorker: 100}}
	explicit := Config{
		Workload: WorkloadSpec{
			Jobs: 4, RatePerHour: 2, StepsPerWorker: 100,
			Arrival: ArrivalPoisson, CheckpointInterval: 1000,
		},
		Scheduler:    DefaultSchedulerName,
		RevModel:     cloud.DefaultLifetimeModelName,
		HorizonHours: DefaultHorizonHours,
	}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("implicit defaults key %q != explicit defaults key %q", implicit.Key(), explicit.Key())
	}
	other := explicit
	other.Scheduler = "cost-greedy"
	if other.Key() == explicit.Key() {
		t.Fatal("different schedulers share a key")
	}
	if !strings.HasPrefix(explicit.Key(), "fleet|") {
		t.Fatalf("fleet keys must carry the fleet| namespace prefix, got %q", explicit.Key())
	}

	// The provider axis canonicalizes like every other default: an
	// implicit market list and the explicit default market share one
	// cache line, and a multi-market fleet occupies another.
	oneMarket := implicit
	oneMarket.Providers = []string{cloud.DefaultProviderName}
	if oneMarket.Key() != implicit.Key() {
		t.Fatalf("explicit default market key %q != implicit key %q", oneMarket.Key(), implicit.Key())
	}
	if !strings.Contains(implicit.Key(), "|prov="+cloud.DefaultProviderName+"|") {
		t.Fatalf("fleet key does not embed the provider axis: %q", implicit.Key())
	}
	multi := implicit
	multi.Providers = []string{"gce", "aws"}
	if multi.Key() == implicit.Key() {
		t.Fatal("multi-market fleet shares the single-market key")
	}
	if !strings.Contains(multi.Key(), "prov=gce+aws") {
		t.Fatalf("multi-market key does not list its markets in order: %q", multi.Key())
	}

	// Capacity renders canonically regardless of map insertion order.
	c1 := Config{Workload: implicit.Workload, Capacity: cloud.Capacity{
		{Region: cloud.USWest1, GPU: model.V100}: 2,
		{Region: cloud.USEast1, GPU: model.K80}:  4,
	}}
	c2 := Config{Workload: implicit.Workload, Capacity: cloud.Capacity{
		{Region: cloud.USEast1, GPU: model.K80}:  4,
		{Region: cloud.USWest1, GPU: model.V100}: 2,
	}}
	if c1.Key() != c2.Key() {
		t.Fatal("capacity map order leaked into the key")
	}
	if !strings.Contains(c1.Key(), "cap=us-east1/K80:4,us-west1/V100:2") {
		t.Fatalf("capacity not canonical in key: %q", c1.Key())
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	good := Config{Workload: testWorkload(ArrivalPoisson)}
	cases := []func(*Config){
		func(c *Config) { c.Scheduler = "nope" },
		func(c *Config) { c.RevModel = "nope" },
		func(c *Config) { c.HorizonHours = -1 },
		func(c *Config) { c.Workload.Jobs = 0 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := Run(cfg, 1); err == nil {
			t.Errorf("case %d: invalid config ran", i)
		}
	}
}

// narrowPool is a fakePool whose catalog can exclude a GPU class from
// every region — the shape serverless-style markets present.
type narrowPool struct {
	fakePool
	offered map[model.GPU]bool
}

func (n narrowPool) Spec(market string) *cloud.ProviderSpec {
	spec := *n.fakePool.Spec(market)
	spec.Offers = func(r cloud.Region, g model.GPU) bool { return n.offered[g] && cloud.Offered(r, g) }
	return &spec
}

// TestDeadlineWakeSkipsUnplaceableJobs is the regression test for the
// wake-up/fallback mismatch: NextWakeHours used to return wake times
// for jobs whose requested GPU class is offered in no region, even
// though Pick's on-demand fallback skips exactly those jobs — the
// fleet would arm a re-check that provably changes nothing.
func TestDeadlineWakeSkipsUnplaceableJobs(t *testing.T) {
	s, err := LookupScheduler("deadline-aware")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := s.(Waker)
	if !ok {
		t.Fatal("deadline-aware no longer implements Waker")
	}
	mkJob := func(id int, g model.GPU) *Job {
		job := &Job{Spec: JobSpec{ID: id, Model: model.ResNet15(), GPU: g, Workers: 1, Steps: 34000}}
		job.Spec.DeadlineHours = job.Spec.OptimisticHours(g) * 3
		return job
	}
	// A market that sells K80s but no V100s anywhere, with no transient
	// room in any cell.
	pool := narrowPool{offered: map[model.GPU]bool{model.K80: true}}

	// A queue holding only the unplaceable job must arm no wake-up.
	unplaceable := mkJob(0, model.V100)
	if at, ok := w.NextWakeHours([]*Job{unplaceable}, pool); ok {
		t.Fatalf("armed a wake-up at %gh for a job Pick can never place", at)
	}

	// Mixed queue: the wake time must be the placeable job's last
	// responsible moment, not the unplaceable one's (which is earlier
	// here because its deadline is tighter).
	placeable := mkJob(1, model.K80)
	tight := mkJob(2, model.V100)
	tight.Spec.DeadlineHours = tight.Spec.OptimisticHours(model.V100) * 1.6
	placeableAt := placeable.Spec.DeadlineAtHours() - placeable.Spec.OptimisticHours(model.K80)*onDemandSlackFactor
	tightAt := tight.Spec.DeadlineAtHours() - tight.Spec.OptimisticHours(model.V100)*onDemandSlackFactor
	if tightAt >= placeableAt {
		t.Fatalf("test lost its teeth: unplaceable moment %gh is not ahead of placeable %gh", tightAt, placeableAt)
	}
	at, ok := w.NextWakeHours([]*Job{placeable, tight}, pool)
	if !ok {
		t.Fatal("no wake-up for a placeable job with a pending fallback")
	}
	if at != placeableAt {
		t.Fatalf("wake at %gh, want the placeable job's moment %gh", at, placeableAt)
	}
}
