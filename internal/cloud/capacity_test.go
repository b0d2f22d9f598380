package cloud

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// survivorModel is a test lifetime regime where no transient server is
// ever revoked: every instance lives to the 24 h cap, giving the test
// full control over when slots free.
type survivorModel struct{}

func (survivorModel) Name() string { return "test-survivor" }
func (survivorModel) SampleLifetime(*stats.Rng, Region, model.GPU, float64) (bool, float64) {
	return false, MaxTransientLifetimeSeconds
}

// reaperModel revokes every transient server after a fixed lifetime.
type reaperModel struct{ after float64 }

func (reaperModel) Name() string { return "test-reaper" }
func (m reaperModel) SampleLifetime(*stats.Rng, Region, model.GPU, float64) (bool, float64) {
	return true, m.after
}

func newCapacityProvider(t *testing.T, lm LifetimeModel, cap Capacity) (*sim.Kernel, *Provider) {
	t.Helper()
	k := &sim.Kernel{}
	p := NewProviderFor(k, stats.NewRng(1), nil, lm)
	p.SetTransientCapacity(cap)
	return k, p
}

func transientReq(r Region, g model.GPU) Request {
	return Request{Region: r, GPU: g, Tier: Transient}
}

func TestLaunchRejectsWhenPoolFull(t *testing.T) {
	cell := PoolKey{USCentral1, model.K80}
	_, p := newCapacityProvider(t, survivorModel{}, Capacity{cell: 2})

	for i := 0; i < 2; i++ {
		if _, err := p.Launch(transientReq(USCentral1, model.K80)); err != nil {
			t.Fatalf("launch %d within capacity failed: %v", i, err)
		}
	}
	if got := p.TransientAvailable(USCentral1, model.K80); got != 0 {
		t.Fatalf("available = %d, want 0", got)
	}
	_, err := p.Launch(transientReq(USCentral1, model.K80))
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("over-capacity launch: got %v, want ErrNoCapacity", err)
	}
	if got := len(p.Instances()); got != 2 {
		t.Fatalf("rejected launch left %d instances, want 2", got)
	}

	// Other cells of the same region, and the same GPU on-demand, are
	// not constrained by this cell's limit.
	if _, err := p.Launch(transientReq(USCentral1, model.P100)); err != nil {
		t.Fatalf("sibling cell rejected: %v", err)
	}
	if _, err := p.Launch(Request{Region: USCentral1, GPU: model.K80, Tier: OnDemand}); err != nil {
		t.Fatalf("on-demand rejected by transient capacity: %v", err)
	}
	if _, err := p.Launch(Request{Region: USCentral1, Tier: Transient}); err != nil {
		t.Fatalf("CPU-only transient rejected by GPU capacity: %v", err)
	}
}

func TestCapacityFreesOnTerminateRevokeAndExpire(t *testing.T) {
	cell := PoolKey{USWest1, model.V100}

	// Customer termination frees the slot.
	k, p := newCapacityProvider(t, survivorModel{}, Capacity{cell: 1})
	in, err := p.Launch(transientReq(cell.Region, cell.GPU))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(transientReq(cell.Region, cell.GPU)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity while held, got %v", err)
	}
	p.Terminate(in)
	if _, err := p.Launch(transientReq(cell.Region, cell.GPU)); err != nil {
		t.Fatalf("slot not freed by Terminate: %v", err)
	}
	_ = k

	// Revocation frees the slot, and the in-use count is already
	// decremented inside OnRevoked (the victim can immediately
	// re-request its own slot, §V-B).
	k, p = newCapacityProvider(t, reaperModel{after: 100}, Capacity{cell: 1})
	var sawFree bool
	req := transientReq(cell.Region, cell.GPU)
	req.OnRevoked = func(*Instance) {
		sawFree = p.TransientAvailable(cell.Region, cell.GPU) == 1
	}
	if _, err := p.Launch(req); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !sawFree {
		t.Fatal("slot not free inside OnRevoked")
	}
	if got := p.TransientInUse(cell.Region, cell.GPU); got != 0 {
		t.Fatalf("in-use after revocation = %d, want 0", got)
	}

	// The 24 h lifetime expiry frees the slot too.
	k, p = newCapacityProvider(t, survivorModel{}, Capacity{cell: 1})
	if _, err := p.Launch(transientReq(cell.Region, cell.GPU)); err != nil {
		t.Fatal(err)
	}
	k.Run() // runs past the lifetime cap
	if got := p.TransientInUse(cell.Region, cell.GPU); got != 0 {
		t.Fatalf("in-use after expiry = %d, want 0", got)
	}
}

func TestCapacityFreedHookOrdersAfterOnRevoked(t *testing.T) {
	cell := PoolKey{USCentral1, model.K80}
	k, p := newCapacityProvider(t, reaperModel{after: 50}, Capacity{cell: 1})
	var order []string
	p.SetCapacityFreedHook(func(key PoolKey) {
		if key != cell {
			t.Errorf("hook fired for %v, want %v", key, cell)
		}
		order = append(order, "hook")
	})
	req := transientReq(cell.Region, cell.GPU)
	req.OnRevoked = func(*Instance) { order = append(order, "revoked") }
	if _, err := p.Launch(req); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(order) != 2 || order[0] != "revoked" || order[1] != "hook" {
		t.Fatalf("event order = %v, want [revoked hook]", order)
	}
}

func TestUnconstrainedPoolHasNoAccounting(t *testing.T) {
	_, p := newTestProvider(3)
	if got := p.TransientAvailable(USEast1, model.K80); got != -1 {
		t.Fatalf("unconstrained cell available = %d, want -1", got)
	}
	for i := 0; i < 100; i++ {
		if _, err := p.Launch(transientReq(USEast1, model.K80)); err != nil {
			t.Fatalf("infinite pool rejected launch %d: %v", i, err)
		}
	}
	if got := p.TransientInUse(USEast1, model.K80); got != 0 {
		t.Fatalf("unconstrained cell tracked in-use = %d, want 0", got)
	}
}

func TestInstancesReturnsACopy(t *testing.T) {
	_, p := newTestProvider(4)
	a, err := p.Launch(transientReq(USEast1, model.K80))
	if err != nil {
		t.Fatal(err)
	}
	got := p.Instances()
	got[0] = nil
	again := p.Instances()
	if len(again) != 1 || again[0] != a {
		t.Fatal("mutating the returned slice corrupted provider state")
	}
}
