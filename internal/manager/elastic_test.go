package manager

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// riskFunc adapts a closure into a RiskSignal for scripted tests.
type riskFunc func(r cloud.Region, g model.GPU, atHours float64) float64

func (f riskFunc) RevocationRisk(r cloud.Region, g model.GPU, atHours float64) float64 {
	return f(r, g, atHours)
}

func constRisk(x float64) RiskSignal {
	return riskFunc(func(cloud.Region, model.GPU, float64) float64 { return x })
}

// scriptedVictims revokes the first len(afters) transient servers it
// samples, each at its scripted lifetime; later launches survive.
type scriptedVictims struct {
	afters  []float64
	sampled int
}

func (*scriptedVictims) Name() string { return "test-scripted-victims" }
func (m *scriptedVictims) SampleLifetime(*stats.Rng, cloud.Region, model.GPU, float64) (bool, float64) {
	m.sampled++
	if m.sampled <= len(m.afters) {
		return true, m.afters[m.sampled-1]
	}
	return false, cloud.MaxTransientLifetimeSeconds
}

func calmEnv(t *testing.T, seed int64) (*sim.Kernel, *cloud.Provider) {
	t.Helper()
	lm, err := cloud.LookupLifetimeModel("norevoke")
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	return k, cloud.NewProviderFor(k, stats.NewRng(seed), nil, lm)
}

func elasticConfig(policy string, n int, risk RiskSignal) Config {
	cfg := basicConfig(n)
	cfg.Elastic = policy
	cfg.Risk = risk
	cfg.TargetSteps = 200000 // long enough to span several resize checks
	return cfg
}

func TestElasticPolicyRegistry(t *testing.T) {
	names := ElasticPolicies()
	want := []string{"static", "elastic", "surge"}
	if len(names) != len(want) {
		t.Fatalf("policies = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("policies = %v, want %v", names, want)
		}
	}
	if p, err := ElasticPolicyByName(""); err != nil || p.Enabled() {
		t.Fatalf("empty name should resolve to the disabled static policy (got %+v, %v)", p, err)
	}
	if _, err := ElasticPolicyByName("frantic"); err == nil ||
		!strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown policy lookup = %v, want an error listing the registry", err)
	}
	for _, name := range []string{"elastic", "surge"} {
		p, err := ElasticPolicyByName(name)
		if err != nil || !p.Enabled() {
			t.Fatalf("%s: %+v, %v", name, p, err)
		}
	}
}

// TestElasticShrinksToFloorUnderRisk drives the shrink path: with the
// risk signal pinned above the threshold, the session sheds one worker
// per check until the floor (half the initial size) and no further.
func TestElasticShrinksToFloorUnderRisk(t *testing.T) {
	k, p := calmEnv(t, 11)
	cfg := elasticConfig("elastic", 4, constRisk(3.0))
	rec := obs.NewRecorder()
	cfg.Trace = rec
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(2 * 3600))
	if got := s.Shrinks(); got != 2 {
		t.Fatalf("shrinks = %d, want 2 (4 → floor 2)", got)
	}
	if got := s.LiveWorkerInstances(); got != 2 {
		t.Fatalf("live instances = %d, want the floor 2", got)
	}
	if got := len(s.Cluster().LiveWorkers()); got != 2 {
		t.Fatalf("live cluster workers = %d, want 2", got)
	}
	if got := len(rec.EventsOf(train.EventShrink)); got != 2 {
		t.Fatalf("shrink events = %d, want 2", got)
	}
	if got := len(rec.EventsOf(train.EventRevocation)); got != 0 {
		t.Fatalf("voluntary scale-in recorded as revocation (%d events)", got)
	}
	// The auto-derived batch policy keeps the global batch exact on the
	// shrunken cluster.
	total := 0
	for _, share := range s.Cluster().Shares() {
		total += share
	}
	if want := 4 * model.ReferenceBatch; total != want {
		t.Fatalf("post-shrink shares sum %d, want %d", total, want)
	}
	// The chief survives every shrink: it holds checkpoint duty.
	if chief := s.Cluster().Chief(); chief == "" {
		t.Fatal("no chief after shrinking")
	}
}

// TestElasticNeverShedsTheLastWorkers pins the floor against a
// shrink-happy signal on the smallest cluster: one worker shrinks to a
// floor of one, i.e. not at all.
func TestElasticNeverShedsTheLastWorkers(t *testing.T) {
	k, p := calmEnv(t, 12)
	s, err := NewSession(p, elasticConfig("elastic", 1, constRisk(100)))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(4 * 3600))
	if s.Shrinks() != 0 {
		t.Fatalf("shrank below one worker (%d shrinks)", s.Shrinks())
	}
	if got := s.LiveWorkerInstances(); got != 1 {
		t.Fatalf("live instances = %d, want 1", got)
	}
}

// TestSurgeGrowsInQuietHours drives the grow path: with risk pinned
// low, the surge policy grows past the initial size up to its 1.5×
// ceiling, one worker per check, all transient.
func TestSurgeGrowsInQuietHours(t *testing.T) {
	k, p := calmEnv(t, 13)
	s, err := NewSession(p, elasticConfig("surge", 2, constRisk(0.3)))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(2 * 3600))
	if got := s.Grows(); got != 1 {
		t.Fatalf("grows = %d, want 1 (2 → ceiling 3)", got)
	}
	if got := s.LiveWorkerInstances(); got != 3 {
		t.Fatalf("live instances = %d, want the ceiling 3", got)
	}
	for _, in := range s.Instances() {
		if in.GPU != 0 && in.Tier != cloud.Transient {
			t.Fatalf("elastic growth launched a non-transient worker")
		}
	}
}

// TestElasticGrowthRespectsPoolCapacity extends PR 4's never-exceeded
// property to elastic mixed clusters: growth skips full cells, lands in
// cells with room, and in-use never exceeds the per-(region, GPU)
// limit at any point in the run.
func TestElasticGrowthRespectsPoolCapacity(t *testing.T) {
	k80 := cloud.PoolKey{Region: cloud.USWest1, GPU: model.K80}
	p100 := cloud.PoolKey{Region: cloud.USWest1, GPU: model.P100}
	k, p := calmEnv(t, 14)
	p.SetTransientCapacity(cloud.Capacity{k80: 1, p100: 2})

	cfg := Config{
		Model: model.ResNet15(),
		Workers: []Placement{
			{GPU: model.K80, Region: cloud.USWest1, Tier: cloud.Transient},
			{GPU: model.P100, Region: cloud.USWest1, Tier: cloud.Transient},
		},
		TargetSteps: 200000,
		Elastic:     "surge", // ceiling 3 = 1.5 × 2
		Risk:        constRisk(0.3),
		Seed:        9,
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Sample the pools every minute: the property is "never exceeded",
	// not "not exceeded at the end".
	var maxK80, maxP100 int
	var poll func()
	poll = func() {
		if n := p.TransientInUse(k80.Region, k80.GPU); n > maxK80 {
			maxK80 = n
		}
		if n := p.TransientInUse(p100.Region, p100.GPU); n > maxP100 {
			maxP100 = n
		}
		k.After(60, poll)
	}
	poll()

	k.RunUntil(sim.Time(2 * 3600))
	if maxK80 > 1 || maxP100 > 2 {
		t.Fatalf("pool exceeded: K80 peak %d (cap 1), P100 peak %d (cap 2)", maxK80, maxP100)
	}
	// The K80 cell was full from the start, so the one grow up to the
	// ceiling must have landed in the P100 cell.
	if got := s.Grows(); got != 1 {
		t.Fatalf("grows = %d, want 1", got)
	}
	if got := p.TransientInUse(p100.Region, p100.GPU); got != 2 {
		t.Fatalf("P100 in use = %d, want 2 (initial + growth)", got)
	}
	if got := p.TransientInUse(k80.Region, k80.GPU); got != 1 {
		t.Fatalf("K80 in use = %d, want 1 (no growth into a full cell)", got)
	}
}

// TestElasticRevocationClampsToFloor pins the replacement clamp: above
// the floor a revoked worker is not replaced (the resize loop decides
// later), below it the configured policy still applies.
func TestElasticRevocationClampsToFloor(t *testing.T) {
	// 3 workers, floor 2: the first revocation leaves 2 (≥ floor, no
	// replacement), the second leaves 1 (< floor, replace immediately).
	lm := &scriptedVictims{afters: []float64{1800, 3600}}
	k := &sim.Kernel{}
	p := cloud.NewProviderFor(k, stats.NewRng(15), nil, lm)
	cfg := elasticConfig("elastic", 3, constRisk(1.3)) // neutral band: no resizes
	cfg.Replacement = ReplaceImmediate
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(3 * 3600))
	if got := s.Revocations(); got != 2 {
		t.Fatalf("revocations = %d, want 2", got)
	}
	if got := s.Replacements(); got != 1 {
		t.Fatalf("replacements = %d, want 1 (only the below-floor loss is replaced)", got)
	}
	if got := s.LiveWorkerInstances(); got != 2 {
		t.Fatalf("live instances = %d, want the floor 2", got)
	}
}

// TestElasticBlockedReplacementDuringResize is the churn-retry path
// under elasticity: a below-floor replacement is capacity-blocked by a
// rival squatting on the freed slot, the session retries on the churn
// cadence, and the elastic loop neither doubles the request nor grows
// past the slot when it frees.
func TestElasticBlockedReplacementDuringResize(t *testing.T) {
	cell := cloud.PoolKey{Region: cloud.USCentral1, GPU: model.K80}
	lm := &scriptedVictims{afters: []float64{1800}}
	k := &sim.Kernel{}
	p := cloud.NewProviderFor(k, stats.NewRng(16), nil, lm)
	p.SetTransientCapacity(cloud.Capacity{cell: 1})

	var rival *cloud.Instance
	p.SetCapacityFreedHook(func(key cloud.PoolKey) {
		if rival != nil {
			return
		}
		rival = p.MustLaunch(cloud.Request{Region: cell.Region, GPU: cell.GPU, Tier: cloud.Transient})
	})

	cfg := elasticConfig("elastic", 1, constRisk(0.3)) // grow-hungry
	// Delay the replacement so the rival can squat on the freed slot
	// first (the immediate path reclaims it before the hook fires).
	cfg.Replacement = ReplaceDelayed
	cfg.DelaySeconds = 60
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(2 * 3600))
	if rival == nil {
		t.Fatal("scripted revocation never fired")
	}
	if got := s.LiveWorkerInstances(); got != 0 {
		t.Fatalf("live instances = %d while the rival holds the only slot", got)
	}
	// Free the slot: exactly one instance (replacement or growth, not
	// both) may claim it — the session is back at its floor and the
	// pool is at capacity.
	p.Terminate(rival)
	k.RunUntil(sim.Time(4 * 3600))
	if got := s.LiveWorkerInstances(); got != 1 {
		t.Fatalf("live instances = %d after the slot freed, want exactly 1", got)
	}
	if got := p.TransientInUse(cell.Region, cell.GPU); got != 1 {
		t.Fatalf("cell in use = %d, want 1 (cap never exceeded)", got)
	}
	if got := s.Replacements(); got != 1 {
		t.Fatalf("replacements = %d, want 1 (the retry loop burns one budget unit)", got)
	}
}

// TestElasticRevocationMidRebalance lands a revocation right after a
// shrink has forced a rebalance, while the smaller cluster's round is
// in flight: the barrier must absorb both membership changes and keep
// training to completion with the global batch intact.
func TestElasticRevocationMidRebalance(t *testing.T) {
	// The first check (t=300 s) shrinks one worker; the scripted victim
	// dies at 320 s of lifetime — mid-round on the freshly rebalanced
	// 3-worker cluster (live 3 ≥ floor 2, so no replacement either).
	lm := &scriptedVictims{afters: []float64{320}}
	k := &sim.Kernel{}
	p := cloud.NewProviderFor(k, stats.NewRng(17), nil, lm)
	// The loop looks one hour ahead, so the first check (t = 300 s)
	// evaluates risk at ≈1.08 h; let only that one shrink.
	cfg := elasticConfig("elastic", 4, riskFunc(func(_ cloud.Region, _ model.GPU, atHours float64) float64 {
		if atHours < 1.1 {
			return 3.0
		}
		return 1.3
	}))
	cfg.TargetSteps = 20000
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(24 * 3600))
	if s.Shrinks() < 1 {
		t.Fatalf("shrinks = %d, want ≥1", s.Shrinks())
	}
	if s.Revocations() != 1 {
		t.Fatalf("revocations = %d, want 1", s.Revocations())
	}
	if !s.Done() {
		t.Fatalf("session stalled after shrink+revocation (step %d)", s.Cluster().GlobalStep())
	}
}
