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

func newEnv(seed int64) (*sim.Kernel, *cloud.Provider) {
	k := &sim.Kernel{}
	return k, cloud.NewProvider(k, stats.NewRng(seed))
}

func basicConfig(n int) Config {
	return Config{
		Model:              model.ResNet15(),
		Workers:            placements(model.K80, cloud.USCentral1, n),
		TargetSteps:        3000,
		CheckpointInterval: 1000,
		Seed:               1,
	}
}

func placements(g model.GPU, r cloud.Region, n int) []Placement {
	out := make([]Placement, n)
	for i := range out {
		out[i] = Placement{GPU: g, Region: r, Tier: cloud.Transient}
	}
	return out
}

func TestSessionTrainsToCompletion(t *testing.T) {
	k, p := newEnv(2)
	s, err := NewSession(p, basicConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(3 * 3600))
	if !s.Done() {
		t.Fatalf("session not done after 3 h; steps = %d", s.Cluster().GlobalStep())
	}
	if s.TrainingStartedAt() < 60 || s.TrainingStartedAt() > 300 {
		t.Errorf("training started at %.1f s, want after instance startup (~60–300 s)", s.TrainingStartedAt())
	}
	res := s.Cluster().Result()
	if res.CheckpointCount < 2 {
		t.Errorf("checkpoints = %d, want ≥2", res.CheckpointCount)
	}
	if s.Cost() <= 0 {
		t.Error("cost should be positive")
	}
}

func TestSessionRejectsBadConfigs(t *testing.T) {
	_, p := newEnv(3)
	bad := []Config{
		{},
		{Model: model.ResNet15(), Workers: []Placement{{GPU: model.V100, Region: cloud.USEast1, Tier: cloud.Transient}}}, // V100 N/A in us-east1
		{Model: model.ResNet15(), Workers: placements(model.K80, cloud.USCentral1, 1), Replacement: ReplaceDelayed},      // missing delay
	}
	for i, cfg := range bad {
		if _, err := NewSession(p, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestImmediateReplacementKeepsClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("long transient-cluster campaign; skipped in -short mode")
	}
	// In a high-revocation region with immediate replacement, the
	// session should absorb revocations and still finish long
	// workloads; replacements requested ≥ revocations absorbed... and
	// every revocation with budget left triggers a request.
	k, p := newEnv(5)
	cfg := Config{
		Model:              model.ResNet15(),
		Workers:            placements(model.K80, cloud.EuropeWest1, 3), // 66% revocation cell
		TargetSteps:        250000,                                      // ≈2.5 h at 3×9.46 steps/s
		CheckpointInterval: 4000,
		Replacement:        ReplaceImmediate,
		Seed:               7,
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(24 * 3600))
	if !s.Done() {
		t.Fatalf("session not done; steps=%d revocations=%d", s.Cluster().GlobalStep(), s.Revocations())
	}
	if s.Revocations() > 0 && s.Replacements() == 0 {
		t.Error("revocations absorbed but no replacements requested")
	}
	if s.Replacements() > s.Revocations() {
		t.Errorf("replacements %d exceed revocations %d", s.Replacements(), s.Revocations())
	}
}

// scriptedEnv is newEnv on a market whose first len(afters) transient
// servers are revoked at the scripted lifetimes; later ones survive.
func scriptedEnv(seed int64, afters ...float64) (*sim.Kernel, *cloud.Provider) {
	k := &sim.Kernel{}
	return k, cloud.NewProviderFor(k, stats.NewRng(seed), nil, &scriptedVictims{afters: afters})
}

func TestReplaceNonePolicyShrinks(t *testing.T) {
	k, p := scriptedEnv(11, 1800, 3600)
	cfg := Config{
		Model:       model.ResNet15(),
		Workers:     placements(model.K80, cloud.EuropeWest1, 4),
		TargetSteps: 2000000, // will not finish in 3 h — we only watch the cluster shrink
		Replacement: ReplaceNone,
		Seed:        13,
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(3 * 3600))
	if s.Revocations() != 2 || s.Replacements() != 0 {
		t.Fatalf("ReplaceNone: %d revocations and %d replacements, want 2 and 0", s.Revocations(), s.Replacements())
	}
	if live := len(s.Cluster().LiveWorkers()); live != 2 {
		t.Errorf("live workers = %d after 2 revocations with no replacement, want 2", live)
	}
}

func TestDelayedReplacement(t *testing.T) {
	k, p := scriptedEnv(17, 1800)
	cfg := Config{
		Model:        model.ResNet15(),
		Workers:      placements(model.P100, cloud.USEast1, 2),
		TargetSteps:  1000000,
		Replacement:  ReplaceDelayed,
		DelaySeconds: 3600,
		Seed:         19,
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(3 * 3600))
	if s.Revocations() != 1 || s.Replacements() != 1 {
		t.Fatalf("%d revocations and %d replacements, want 1 and 1", s.Revocations(), s.Replacements())
	}
	var victim *cloud.Instance
	for _, in := range s.owned {
		if in.WasRevoked() {
			victim = in
		}
	}
	repl := s.owned[len(s.owned)-1]
	if victim == nil || repl == victim {
		t.Fatalf("no revoked instance followed by a replacement among %d owned", len(s.owned))
	}
	if want := victim.EndedAt + sim.Time(cfg.DelaySeconds); repl.RequestedAt != want {
		t.Errorf("replacement requested at %v, want %v: %v s after the revocation at %v",
			repl.RequestedAt, want, cfg.DelaySeconds, victim.EndedAt)
	}
}

// slowPSSession starts two transient K80 workers on a market whose
// parameter server boots in 100 s and GPU servers in 10 s, so both
// workers wait for it, and whose first two transient servers are
// revoked lifetime seconds after they boot. policy decides what
// replaces them.
func slowPSSession(t *testing.T, lifetime float64, policy ReplacementPolicy) (*sim.Kernel, *Session, *obs.Recorder) {
	t.Helper()
	spec := *cloud.DefaultProvider()
	spec.Name = "test-slow-ps"
	spec.Startup = func(_ *stats.Rng, g model.GPU, _ cloud.Tier, _ cloud.Region, _ bool) cloud.StartupBreakdown {
		if g == 0 {
			return cloud.StartupBreakdown{Booting: 100}
		}
		return cloud.StartupBreakdown{Booting: 10}
	}
	k := &sim.Kernel{}
	p := cloud.NewProviderFor(k, stats.NewRng(1), &spec, &scriptedVictims{afters: []float64{lifetime, lifetime}})
	cfg := basicConfig(2)
	cfg.TargetSteps = 1000000
	cfg.Replacement = policy
	cfg.Trace = obs.NewRecorder()
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, s, cfg.Trace
}

// TestWorkersWaitingForPSAreRevocable: workers that booted before the
// parameter server join when it is up, and a later revocation of
// their instances removes them from the cluster.
func TestWorkersWaitingForPSAreRevocable(t *testing.T) {
	k, s, rec := slowPSSession(t, 600, ReplaceNone) // revoked at 610 s
	k.RunUntil(sim.Time(600))
	if n := len(s.Cluster().LiveWorkers()); n != 2 {
		t.Fatalf("%d workers train before the revocations, want 2", n)
	}
	k.RunUntil(sim.Time(700))
	if live := s.Cluster().LiveWorkers(); len(live) != 0 {
		t.Fatalf("workers %v still train after their instances were revoked", live)
	}
	if n := len(rec.EventsOf("startup")); n != 2 {
		t.Fatalf("%d startup events, want one per joined worker", n)
	}
}

// TestWorkersRevokedWhileWaitingNeverJoin: a worker whose instance is
// revoked while it waits for the parameter server never joins.
func TestWorkersRevokedWhileWaitingNeverJoin(t *testing.T) {
	k, s, rec := slowPSSession(t, 50, ReplaceNone) // revoked at 60 s
	k.RunUntil(sim.Time(300))
	if live := s.Cluster().LiveWorkers(); len(live) != 0 {
		t.Fatalf("workers %v still train after their instances were revoked", live)
	}
	if joins := rec.EventsOf(train.EventJoin); len(joins) != 0 {
		t.Fatalf("revoked workers joined: %v", joins)
	}
	if s.Revocations() != 2 {
		t.Fatalf("revocations = %d, want 2", s.Revocations())
	}
}

func TestTerminateAllStopsBilling(t *testing.T) {
	k, p := newEnv(31)
	s, err := NewSession(p, basicConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Time(600))
	s.TerminateAll()
	cost := s.Cost()
	k.RunUntil(sim.Time(7200))
	if s.Cost() != cost {
		t.Fatalf("cost kept accruing after TerminateAll: %.4f → %.4f", cost, s.Cost())
	}
}

func TestPolicyStrings(t *testing.T) {
	if ReplaceNone.String() != "none" || ReplaceImmediate.String() != "immediate" || ReplaceDelayed.String() != "delayed" {
		t.Error("policy stringers broken")
	}
}

// TestRevocationWhileWaitingIsTraced: an instance revoked while it
// waits for the parameter server has no cluster worker to record the
// revocation, so the session records it. Its replacement's replace
// event then follows a revocation, as checkTraceInvariants in
// cmd/repro requires of every traced session.
func TestRevocationWhileWaitingIsTraced(t *testing.T) {
	k, s, rec := slowPSSession(t, 50, ReplaceImmediate) // revoked at 60 s, replaced at once
	k.RunUntil(sim.Time(115))
	revs, replaces := rec.EventsOf(train.EventRevocation), rec.EventsOf("replace")
	if s.Revocations() != 2 || len(replaces) != 2 {
		t.Fatalf("%d revocations and %d replace events, want 2 of each", s.Revocations(), len(replaces))
	}
	if len(revs) != s.Revocations() {
		t.Fatalf("%d revocation events for %d revocations", len(revs), s.Revocations())
	}
	for _, e := range revs {
		if e.Worker != "" || !strings.HasPrefix(e.Detail, "instance ") {
			t.Errorf("revocation %+v: want no worker and the instance in its detail", e)
		}
	}
}
