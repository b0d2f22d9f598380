package manager

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// firstVictimModel revokes only the first transient server it is asked
// about, after a fixed lifetime; everyone else survives to the cap.
// It gives the capacity tests full control of the revocation schedule.
type firstVictimModel struct {
	after   float64
	sampled int
}

func (*firstVictimModel) Name() string { return "test-first-victim" }
func (m *firstVictimModel) SampleLifetime(*stats.Rng, cloud.Region, model.GPU, float64) (bool, float64) {
	m.sampled++
	if m.sampled == 1 {
		return true, m.after
	}
	return false, cloud.MaxTransientLifetimeSeconds
}

// TestReplacementRetriesWhenPoolIsFull drives the churn-aware retry
// path: a one-slot cell, a delayed replacement, and a rival that
// steals the freed slot during the delay. The session must keep
// retrying (counting one replacement, not one per retry) and land its
// replacement once the rival leaves.
func TestReplacementRetriesWhenPoolIsFull(t *testing.T) {
	cell := cloud.PoolKey{Region: cloud.USCentral1, GPU: model.K80}
	k := &sim.Kernel{}
	p := cloud.NewProviderFor(k, stats.NewRng(3), nil, &firstVictimModel{after: 1800})
	p.SetTransientCapacity(cloud.Capacity{cell: 1})

	// The rival grabs the slot the instant the victim's revocation
	// frees it — the capacity-freed hook fires after OnRevoked, and the
	// session's replacement is delayed, so the slot is open.
	var rival *cloud.Instance
	p.SetCapacityFreedHook(func(key cloud.PoolKey) {
		if rival != nil {
			return
		}
		in, err := p.Launch(cloud.Request{Region: cell.Region, GPU: cell.GPU, Tier: cloud.Transient})
		if err != nil {
			t.Errorf("rival launch on freed slot: %v", err)
			return
		}
		rival = in
	})

	cfg := Config{
		Model:              model.ResNet15(),
		Workers:            placements(cell.GPU, cell.Region, 1),
		TargetSteps:        60000, // ≈1.8 h at 9.46 steps/s: spans the revocation
		CheckpointInterval: 1000,
		Replacement:        ReplaceDelayed,
		DelaySeconds:       60,
		Seed:               5,
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Free the slot again a while after the rival takes it; the
	// session's retry loop should claim it within one churn-paced
	// retry interval.
	k.RunUntil(sim.Time(3600))
	if rival == nil {
		t.Fatalf("no revocation fired; sampled lifetimes did not include the victim")
	}
	p.Terminate(rival)
	k.RunUntil(sim.Time(7 * 24 * 3600))

	if !s.Done() {
		t.Fatalf("session never finished; steps=%d", s.Cluster().GlobalStep())
	}
	if s.Revocations() != 1 {
		t.Fatalf("revocations = %d, want 1", s.Revocations())
	}
	if s.Replacements() != 1 {
		t.Fatalf("replacements = %d, want 1 (retries must not burn budget)", s.Replacements())
	}
	// The replacement instance must have been requested only after the
	// rival released the slot — proof the blocked attempts retried
	// rather than panicking or giving up. Session instances: PS,
	// original worker, replacement worker.
	owned := s.Instances()
	if len(owned) != 3 {
		t.Fatalf("session owns %d instances, want 3 (ps, worker, replacement)", len(owned))
	}
	repl := owned[2]
	if repl.RequestedAt <= rival.EndedAt {
		t.Fatalf("replacement requested at %v, before the rival freed the slot at %v", repl.RequestedAt, rival.EndedAt)
	}
}

// TestNewSessionSurfacesCapacityRejection pins the error contract the
// fleet scheduler relies on: admitting a cluster into a cell without
// room fails loudly with cloud.ErrNoCapacity.
func TestNewSessionSurfacesCapacityRejection(t *testing.T) {
	cell := cloud.PoolKey{Region: cloud.USCentral1, GPU: model.K80}
	k := &sim.Kernel{}
	p := cloud.NewProvider(k, stats.NewRng(4))
	p.SetTransientCapacity(cloud.Capacity{cell: 1})
	cfg := basicConfig(2) // two workers into a one-slot cell
	if _, err := NewSession(p, cfg); !errors.Is(err, cloud.ErrNoCapacity) {
		t.Fatalf("got %v, want ErrNoCapacity", err)
	}
}

// TestSessionCostCoversOnlyOwnedInstances pins the multi-tenant
// billing boundary: a stranger's instance on the same provider must
// not appear in the session's bill.
func TestSessionCostCoversOnlyOwnedInstances(t *testing.T) {
	k := &sim.Kernel{}
	p := cloud.NewProvider(k, stats.NewRng(6))
	stranger, err := p.Launch(cloud.Request{Region: cloud.USCentral1, GPU: model.V100, Tier: cloud.OnDemand})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(p, basicConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !s.Done() {
		t.Fatal("session did not finish")
	}
	total := p.TotalCost()
	own := s.Cost()
	if own >= total {
		t.Fatalf("session cost %.4f should be below provider total %.4f (stranger bill missing)", own, total)
	}
	if diff := math.Abs(own + stranger.Cost(p.Now()) - total); diff > 1e-9 {
		t.Fatalf("owned + stranger differs from provider total by %g", diff)
	}
}
