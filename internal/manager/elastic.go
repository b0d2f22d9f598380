package manager

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/registry"
)

// This file is the controller's elastic-resize layer: a session can
// grow into cheap transient capacity during quiet hours and shrink
// ahead of the revocation waves the diurnal calibration (Fig. 9)
// predicts, instead of holding a fixed worker count and eating every
// preemption. It rides on the synchronous dynamic-batching mode —
// membership changes rebalance shares, so resizes change speed and
// cost but never the effective global batch.

// RiskSignal predicts near-future revocation pressure for one
// (region, GPU) cell at an absolute simulation hour, as a ratio to the
// cell's daily-mean hazard (1 = average hour). The default is the
// diurnal prior below; internal/fleet substitutes a history-informed
// signal that scales the prior by observed revocation rates.
type RiskSignal interface {
	RevocationRisk(r cloud.Region, g model.GPU, atHours float64) float64
}

// DiurnalRisk is the default RiskSignal: the Fig. 9 time-of-day prior,
// with no observational correction.
type DiurnalRisk struct{}

// RevocationRisk returns cloud.DiurnalRiskRatio for the cell.
func (DiurnalRisk) RevocationRisk(r cloud.Region, g model.GPU, atHours float64) float64 {
	return cloud.DiurnalRiskRatio(r, g, atHours)
}

// The resize loop's operating point. The elastic policies share it and
// differ only in their ceiling (ElasticPolicy.MaxGrowFactor).
const (
	// checkSeconds is the risk-evaluation cadence. The loop draws no
	// randomness, so the cadence itself never perturbs the
	// simulation's random streams.
	checkSeconds = 300
	// lookaheadHours is how far ahead the risk signal is evaluated —
	// shrinking when the wave arrives is too late, since a revocation
	// takes the worker's in-flight share with it.
	lookaheadHours = 1
	// The loop sheds one worker per check while predicted risk is at or
	// above shrinkAbove and the cluster is above its floor, and adds
	// one while risk is at or below growBelow and the cluster is below
	// its ceiling.
	shrinkAbove = 1.6
	growBelow   = 1.0
	// minShrinkFactor × initial workers is the floor (rounded up, never
	// below one): the session always keeps a core that makes progress.
	minShrinkFactor = 0.5
)

// ElasticPolicy names a resize policy and its ceiling. The zero value
// (and the default static policy) disables the loop.
type ElasticPolicy struct {
	Name string
	// MaxGrowFactor × initial workers is the ceiling (rounded down):
	// 1.0 only re-grows what revocations or shrinks took; >1 surges
	// past the requested size in quiet hours.
	MaxGrowFactor float64
}

// Enabled reports whether the policy actually resizes.
func (p ElasticPolicy) Enabled() bool { return p.MaxGrowFactor > 0 }

// DefaultElasticPolicyName is the policy a session runs when its
// config names none: hold the launch shape, only replace revocations.
const DefaultElasticPolicyName = "static"

// elasticPolicies is the policy registry; builtins register at init
// (see internal/registry for the naming rules).
var elasticPolicies = registry.New[ElasticPolicy]("manager", "elastic policy", DefaultElasticPolicyName)

func init() {
	for _, p := range []ElasticPolicy{
		{Name: DefaultElasticPolicyName},
		{Name: "elastic", MaxGrowFactor: 1.0},
		{Name: "surge", MaxGrowFactor: 1.5},
	} {
		elasticPolicies.Register(p.Name, p)
	}
}

// ElasticPolicies lists the registered policy names, default first —
// the order /v1/catalog reports.
func ElasticPolicies() []string { return elasticPolicies.Names() }

// ElasticPolicyByName resolves a registered policy; "" means the
// default. Unknown names report the available ones.
func ElasticPolicyByName(name string) (ElasticPolicy, error) { return elasticPolicies.Lookup(name) }

// Grows returns how many workers the elastic loop added.
func (s *Session) Grows() int { return s.grows }

// Shrinks returns how many workers the elastic loop removed.
func (s *Session) Shrinks() int { return s.shrinks }

// LiveWorkerInstances returns how many GPU instances the session
// currently holds (requested, provisioning, or running).
func (s *Session) LiveWorkerInstances() int { return len(s.instances) }

// elasticFloor is the minimum worker-instance count the loop (and the
// revocation-replacement clamp) maintains.
func (s *Session) elasticFloor() int {
	floor := int(float64(s.initialWorkers)*minShrinkFactor + 0.999999)
	if floor < 1 {
		floor = 1
	}
	return floor
}

// elasticCeiling is the maximum worker-instance count the loop grows
// to, never below the floor.
func (s *Session) elasticCeiling() int {
	ceil := int(float64(s.initialWorkers) * s.elastic.MaxGrowFactor)
	if f := s.elasticFloor(); ceil < f {
		ceil = f
	}
	return ceil
}

// scheduleElasticCheck arms the next risk check.
func (s *Session) scheduleElasticCheck() {
	s.provider.Kernel().After(checkSeconds, s.elasticCheck)
}

// elasticCheck is one pass of the resize loop: shrink one worker if a
// revocation wave is due, else grow one if the skies are clear and the
// pool has room. One worker per check keeps resizes gradual (the
// barrier absorbs each rebalance) and makes the loop self-limiting.
func (s *Session) elasticCheck() {
	if s.cluster.Done() {
		return
	}
	atHours := s.provider.Now().Seconds()/3600 + lookaheadHours
	if !s.shrinkIfRisky(atHours) {
		s.growIfClear(atHours)
	}
	s.scheduleElasticCheck()
}

// shrinkIfRisky sheds the highest-risk transient worker when the
// predicted hazard crosses the policy threshold; reports whether it
// shrank. Voluntary scale-in terminates the instance (stopping its
// meter) and retires the worker as a shrink, not a revocation — the
// survivors absorb its batch share at the next rebalance.
func (s *Session) shrinkIfRisky(atHours float64) bool {
	if len(s.instances) <= s.elasticFloor() {
		return false
	}
	var victim *cloud.Instance
	var worst float64
	for _, in := range s.ownedLiveTransients() {
		risk := s.risk.RevocationRisk(in.Region, in.GPU, atHours)
		if risk < shrinkAbove {
			continue
		}
		// Highest predicted risk first; among equals, the most recent
		// launch (owned order) — it has the least warm-up sunk into it.
		if victim == nil || risk >= worst {
			if name, ok := s.instWorker[in.ID]; ok && name == s.cluster.Chief() {
				continue // never shed the checkpoint holder
			}
			victim, worst = in, risk
		}
	}
	if victim == nil {
		return false
	}
	delete(s.instances, victim.ID)
	name := s.instWorker[victim.ID]
	if name != "" {
		delete(s.instWorker, victim.ID)
		_ = s.cluster.RemoveWorker(name)
	}
	s.provider.Terminate(victim)
	s.shrinks++
	s.cfg.Trace.Record(obs.Event{
		T:      s.provider.Now().Seconds(),
		Kind:   "elastic-shrink",
		Worker: name,
		Risk:   worst,
		Detail: fmt.Sprintf("%v/%v", victim.Region, victim.GPU),
	})
	return true
}

// growIfClear adds one transient worker in the calmest configured cell
// when predicted risk is below the policy threshold. Growth is always
// transient — the whole point is harvesting the cheap tier while it is
// safe. A capacity-full or churning pool just skips the check; the
// next one retries for free.
func (s *Session) growIfClear(atHours float64) {
	if len(s.instances) >= s.elasticCeiling() {
		return
	}
	var best Placement
	found := false
	var bestRisk float64
	for _, pl := range s.growthCells() {
		risk := s.risk.RevocationRisk(pl.Region, pl.GPU, atHours)
		if risk > growBelow {
			continue
		}
		if s.provider.Churning(pl.Region) || s.provider.TransientAvailable(pl.Region, pl.GPU) == 0 {
			continue
		}
		if !found || risk < bestRisk {
			best, bestRisk, found = pl, risk, true
		}
	}
	if !found {
		return
	}
	best.Tier = cloud.Transient
	if err := s.requestWorker(best); err != nil {
		if errors.Is(err, cloud.ErrNoCapacity) {
			return // the pool filled between the check and the claim
		}
		panic(fmt.Sprintf("manager: elastic grow failed: %v", err))
	}
	s.grows++
	s.cfg.Trace.Record(obs.Event{
		T:      s.provider.Now().Seconds(),
		Kind:   "elastic-grow",
		Risk:   bestRisk,
		Detail: fmt.Sprintf("%v/%v", best.Region, best.GPU),
	})
}

// growthCells lists the distinct transient (region, GPU) cells of the
// configured workers, in config order — the elastic loop only grows
// shapes the session asked for.
func (s *Session) growthCells() []Placement {
	seen := make(map[Placement]bool, len(s.cfg.Workers))
	var out []Placement
	for _, pl := range s.cfg.Workers {
		if pl.Tier != cloud.Transient {
			continue
		}
		key := Placement{GPU: pl.GPU, Region: pl.Region, Tier: cloud.Transient}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, key)
	}
	return out
}

// ownedLiveTransients returns the session's live transient GPU
// instances in launch order.
func (s *Session) ownedLiveTransients() []*cloud.Instance {
	var out []*cloud.Instance
	for _, in := range s.owned {
		if in.Tier != cloud.Transient || in.GPU == 0 {
			continue
		}
		if _, live := s.instances[in.ID]; live {
			out = append(out, in)
		}
	}
	return out
}
