package cloud

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Request describes one instance acquisition. OnRunning and OnRevoked
// are invoked on the simulation thread; either may be nil.
type Request struct {
	Region   Region
	GPU      model.GPU // zero requests a CPU-only server (parameter server)
	Tier     Tier
	Stressed bool
	// OnRunning fires when the instance finishes booting.
	OnRunning func(*Instance)
	// OnRevoked fires if the provider preempts the instance. Google
	// Cloud gives a ~30 s ACPI warning before killing a preemptible
	// VM; CM-DARE's shutdown-script hook runs inside that window, so
	// the callback is the simulation analogue of that hook.
	OnRevoked func(*Instance)
}

// Provider is the simulated cloud. It is not safe for concurrent use;
// everything runs on the simulation thread.
type Provider struct {
	k        *sim.Kernel
	rng      *stats.Rng
	spec     *ProviderSpec
	lifetime LifetimeModel

	nextID int64
	// lastRevocation tracks, per region, when capacity last churned;
	// requests inside the churn window get Fig. 7's higher startup
	// variance.
	lastRevocation map[Region]sim.Time

	// capacity optionally bounds the transient pool per (region, GPU)
	// cell; see capacity.go. Nil means every cell is infinite, which is
	// the pre-fleet behavior exactly.
	capacity        Capacity
	inUse           map[PoolKey]int
	onCapacityFreed func(PoolKey)

	instances []*Instance
}

// NewProvider returns a provider bound to the kernel, drawing all
// randomness from rng (which it forks, so the caller's stream is
// unaffected by provider internals). Transient lifetimes follow the
// default Table V calibration; use NewProviderFor to simulate a
// different market or revocation regime.
func NewProvider(k *sim.Kernel, rng *stats.Rng) *Provider {
	return NewProviderFor(k, rng, nil, nil)
}

// NewProviderFor instantiates one market: a provider whose catalog,
// prices, startup behavior, and default lifetime regime come from the
// spec. A nil spec means the default (gce) world; a nil lifetime model
// means the spec's default regime. The rng is forked exactly once, so
// construction consumes the same number of caller draws on every path
// — the byte-identity guarantee the goldens rest on.
func NewProviderFor(k *sim.Kernel, rng *stats.Rng, spec *ProviderSpec, m LifetimeModel) *Provider {
	if spec == nil {
		spec = DefaultProvider()
	}
	if m == nil {
		var err error
		m, err = LookupLifetimeModel(spec.LifetimeModel)
		if err != nil {
			panic(err) // registerProvider validated the name; unreachable
		}
	}
	return &Provider{
		k:              k,
		rng:            rng.Fork(),
		spec:           spec,
		lifetime:       m,
		lastRevocation: make(map[Region]sim.Time),
	}
}

// Spec returns the market this provider instantiates.
func (p *Provider) Spec() *ProviderSpec { return p.spec }

// Now returns the provider's virtual clock.
func (p *Provider) Now() sim.Time { return p.k.Now() }

// Kernel exposes the simulation kernel so higher layers (training
// cluster, campaigns) can schedule their own events in the same time
// domain.
func (p *Provider) Kernel() *sim.Kernel { return p.k }

// Instances returns all instances ever requested, in request order.
// The slice is a copy: callers (trackers, fleet schedulers) iterate
// and filter it freely without being able to corrupt the provider's
// own bookkeeping by aliasing.
func (p *Provider) Instances() []*Instance {
	out := make([]*Instance, len(p.instances))
	copy(out, p.instances)
	return out
}

// Launch requests an instance and schedules its whole lifecycle. It
// returns the instance immediately (in Requested state); the instance
// transitions through provisioning, staging and booting on the virtual
// clock and then fires req.OnRunning.
//
// It returns an error if the placement is not offered (Table V's N/A
// cells) — GPU requests only; CPU-only servers are available
// everywhere — or an ErrNoCapacity-wrapped error if the placement is a
// transient GPU cell whose configured pool is fully in use (see
// capacity.go; the default pool is infinite and never rejects).
func (p *Provider) Launch(req Request) (*Instance, error) {
	if !req.Region.Valid() {
		return nil, fmt.Errorf("cloud: invalid region %d", int(req.Region))
	}
	if req.GPU != 0 {
		if !req.GPU.Valid() {
			return nil, fmt.Errorf("cloud: invalid GPU %d", int(req.GPU))
		}
		if !p.spec.Offers(req.Region, req.GPU) {
			return nil, fmt.Errorf("cloud: %v not offered in %v by provider %s", req.GPU, req.Region, p.spec.Name)
		}
	}
	p.nextID++
	in := &Instance{
		ID:          p.nextID,
		Region:      req.Region,
		GPU:         req.GPU,
		Tier:        req.Tier,
		Stressed:    req.Stressed,
		state:       Requested,
		RequestedAt: p.k.Now(),
		onRunning:   req.OnRunning,
		onRevoked:   req.OnRevoked,
	}
	// Prices are struck at acceptance from the market's book; the gce
	// book computes the exact same floats the instance used to derive
	// from package model constants, keeping historical costs
	// bit-identical.
	if req.GPU == 0 {
		in.hourlyUSD = p.spec.PSHourly
	} else {
		in.hourlyUSD = p.spec.GPUHourly(req.GPU, req.Tier)
	}
	if err := p.acquireSlot(in); err != nil {
		p.nextID-- // the request was rejected, not accepted then killed
		return nil, err
	}
	p.instances = append(p.instances, in)

	churning := p.churning(req.Region)
	in.startup = p.spec.Startup(p.rng, req.GPU, req.Tier, req.Region, churning)

	in.state = Provisioning
	p.k.After(in.startup.Provisioning, func() {
		if in.state != Provisioning {
			return // terminated while provisioning
		}
		in.state = Staging
		p.k.After(in.startup.Staging, func() {
			if in.state != Staging {
				return
			}
			p.k.After(in.startup.Booting, func() {
				if in.state != Staging {
					return
				}
				p.run(in)
			})
		})
	})
	return in, nil
}

// MustLaunch is Launch for callers that have already validated the
// placement; it panics on error.
func (p *Provider) MustLaunch(req Request) *Instance {
	in, err := p.Launch(req)
	if err != nil {
		panic(err)
	}
	return in
}

// run transitions the instance to Running and, for transient servers,
// schedules its revocation or lifetime-cap termination.
func (p *Provider) run(in *Instance) {
	in.state = Running
	in.RunningAt = p.k.Now()
	if in.Tier == Transient {
		revoked, lifetime := p.lifetime.SampleLifetime(p.rng, in.Region, gpuOrK80(in.GPU), in.RunningAt.Hours())
		if revoked {
			in.revocationTimer = p.k.After(lifetime, func() { p.revoke(in) })
		} else {
			in.revocationTimer = p.k.After(lifetime, func() { p.expire(in) })
		}
	}
	if in.onRunning != nil {
		in.onRunning(in)
	}
}

// gpuOrK80 maps CPU-only transient servers onto the K80 revocation
// profile of their region; the paper never uses transient parameter
// servers, but the simulator should not crash if an experiment does.
func gpuOrK80(g model.GPU) model.GPU {
	if g == 0 {
		return model.K80
	}
	return g
}

// revoke preempts a running transient instance. The pool slot frees
// before OnRevoked runs (so the victim's immediate replacement can
// reclaim it, §V-B) but the capacity-freed hook fires after (so a
// fleet scheduler sees the post-replacement state of the pool).
func (p *Provider) revoke(in *Instance) {
	if in.state != Running {
		return
	}
	in.state = Revoked
	in.EndedAt = p.k.Now()
	p.lastRevocation[in.Region] = p.k.Now()
	key, freed := p.releaseSlot(in)
	if in.onRevoked != nil {
		in.onRevoked(in)
	}
	if freed {
		p.notifyFreed(key)
	}
}

// expire terminates a transient instance at the 24 h lifetime cap.
func (p *Provider) expire(in *Instance) {
	if in.state != Running {
		return
	}
	in.state = Terminated
	in.EndedAt = p.k.Now()
	if key, freed := p.releaseSlot(in); freed {
		p.notifyFreed(key)
	}
}

// Terminate stops an instance at the customer's request. Terminating
// an already-ended instance is a no-op.
func (p *Provider) Terminate(in *Instance) {
	if in.state.Done() {
		return
	}
	in.revocationTimer.Cancel()
	in.state = Terminated
	in.EndedAt = p.k.Now()
	if key, freed := p.releaseSlot(in); freed {
		p.notifyFreed(key)
	}
}

// churning reports whether the region had a revocation within the
// churn window (Fig. 7's "immediate request" regime).
func (p *Provider) churning(r Region) bool {
	at, ok := p.lastRevocation[r]
	return ok && float64(p.k.Now()-at) < churnWindowSeconds
}

// TotalCost sums the cost of every instance at time now.
func (p *Provider) TotalCost() float64 {
	var sum float64
	for _, in := range p.instances {
		sum += in.Cost(p.k.Now())
	}
	return sum
}
