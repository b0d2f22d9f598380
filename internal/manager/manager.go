// Package manager implements CM-DARE's resource manager and
// controller (paper Fig. 1): it acquires cloud instances for a
// training session, wires instance lifecycle events into the training
// cluster (joins, revocations), and applies replacement policies when
// transient workers are revoked.
//
// The manager is the glue between the cloud substrate
// (internal/cloud) and the training runtime (internal/train); neither
// of those packages knows about the other.
package manager

import (
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/train"
)

// ReplacementPolicy selects what the controller does when a worker is
// revoked (§V-B studies immediate versus delayed acquisition).
type ReplacementPolicy int

const (
	// ReplaceNone lets the cluster shrink.
	ReplaceNone ReplacementPolicy = iota + 1
	// ReplaceImmediate requests a same-type replacement at once; the
	// paper finds revocations do not slow subsequent requests, so this
	// is the recommended default.
	ReplaceImmediate
	// ReplaceDelayed waits DelaySeconds before requesting.
	ReplaceDelayed
)

// String names the policy.
func (p ReplacementPolicy) String() string {
	switch p {
	case ReplaceNone:
		return "none"
	case ReplaceImmediate:
		return "immediate"
	case ReplaceDelayed:
		return "delayed"
	default:
		return fmt.Sprintf("ReplacementPolicy(%d)", int(p))
	}
}

// Placement describes one worker to acquire.
type Placement struct {
	GPU    model.GPU
	Region cloud.Region
	Tier   cloud.Tier
}

// Config describes a managed training session.
type Config struct {
	Model   model.Model
	Workers []Placement
	// ParameterServers is the shard count; parameter servers run
	// on-demand (the paper never risks the non-revocable role) in the
	// first worker's region.
	ParameterServers int

	TargetSteps        int64
	CheckpointInterval int64

	Replacement  ReplacementPolicy
	DelaySeconds float64 // for ReplaceDelayed

	// Elastic names a registered resize policy ("static", "elastic",
	// "surge"); empty means static.
	Elastic string

	// Risk overrides the revocation-risk signal the elastic loop
	// consults; nil uses the DiurnalRisk prior.
	Risk RiskSignal

	Seed int64

	// Trace, when non-nil, receives the session's sim-plane timeline:
	// the cluster's own events plus the manager layer's (worker
	// startups, replacements, elastic resize decisions with the risk
	// that triggered them). Tracing never perturbs the simulation.
	Trace *obs.Recorder
}

// validate rejects impossible configurations and fills defaults. The
// catalog check runs against the provider the session will launch on,
// since each market offers its own cells.
func (c *Config) validate(spec *cloud.ProviderSpec) error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("manager: no workers")
	}
	for i, w := range c.Workers {
		if !w.GPU.Valid() {
			return fmt.Errorf("manager: worker %d invalid GPU", i)
		}
		if !spec.Offers(w.Region, w.GPU) {
			return fmt.Errorf("manager: worker %d: %v not offered in %v", i, w.GPU, w.Region)
		}
	}
	if c.ParameterServers == 0 {
		c.ParameterServers = 1
	}
	if c.ParameterServers < 0 {
		return fmt.Errorf("manager: negative parameter server count")
	}
	if c.Replacement == 0 {
		c.Replacement = ReplaceImmediate
	}
	if c.Replacement == ReplaceDelayed && c.DelaySeconds <= 0 {
		return fmt.Errorf("manager: delayed replacement needs positive DelaySeconds")
	}
	return nil
}

// batchPolicy decides the session's batching: workers of mixed GPU
// types, or an elastic policy that resizes, train in synchronous rounds
// over a global batch of model.ReferenceBatch per initial worker, so
// shares rebalance as speeds and membership change. Anything else
// keeps the asynchronous default (nil).
func batchPolicy(workers []Placement, elastic ElasticPolicy) *train.BatchPolicy {
	rounds := elastic.Enabled()
	for _, w := range workers {
		rounds = rounds || w.GPU != workers[0].GPU
	}
	if !rounds {
		return nil
	}
	return &train.BatchPolicy{GlobalBatch: model.ReferenceBatch * len(workers), Dynamic: true}
}

// Session is one managed training run. All methods run on the
// simulation thread.
type Session struct {
	provider *cloud.Provider
	cluster  *train.Cluster
	cfg      Config

	psInstances []*cloud.Instance
	psUp        int
	started     bool

	// owned lists every instance this session ever launched (parameter
	// servers, workers, replacements), in launch order. It is the
	// session's billing scope: on a shared provider running many
	// sessions (internal/fleet), each session pays for exactly its own
	// servers.
	owned []*cloud.Instance

	// pending holds worker instances that came up before the
	// parameter servers did.
	pending []*cloud.Instance

	instances    map[int64]Placement // live GPU instances by ID
	instWorker   map[int64]string    // instance → cluster worker name
	revocations  int
	replacements int

	// Elastic-resize state (elastic.go); elastic is the zero value for
	// static sessions.
	elastic        ElasticPolicy
	risk           RiskSignal
	initialWorkers int
	grows          int
	shrinks        int

	trainingStartedAt float64
}

// NewSession builds the session and immediately requests every
// instance (parameter servers and workers) from the provider. Run the
// kernel to make progress; the session starts training once the
// parameter servers and the first worker are up.
func NewSession(p *cloud.Provider, cfg Config) (*Session, error) {
	if err := cfg.validate(p.Spec()); err != nil {
		return nil, err
	}
	elastic, err := ElasticPolicyByName(cfg.Elastic)
	if err != nil {
		return nil, err
	}
	cluster, err := train.NewCluster(p.Kernel(), train.Config{
		Model:              cfg.Model,
		ParameterServers:   cfg.ParameterServers,
		TargetSteps:        cfg.TargetSteps,
		CheckpointInterval: cfg.CheckpointInterval,
		Batch:              batchPolicy(cfg.Workers, elastic),
		Seed:               cfg.Seed,
		Trace:              cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	risk := cfg.Risk
	if risk == nil {
		risk = DiurnalRisk{}
	}
	s := &Session{
		provider:       p,
		cluster:        cluster,
		cfg:            cfg,
		instances:      make(map[int64]Placement),
		instWorker:     make(map[int64]string),
		elastic:        elastic,
		risk:           risk,
		initialWorkers: len(cfg.Workers),
	}
	if cfg.TargetSteps > 0 {
		// Stop the meter the moment training completes; cloud servers
		// left running after the session bill (and churn) for nothing.
		cluster.WhenStep(cfg.TargetSteps, s.TerminateAll)
	}
	for i := 0; i < cfg.ParameterServers; i++ {
		in, err := p.Launch(cloud.Request{
			Region:    cfg.Workers[0].Region,
			Tier:      cloud.OnDemand,
			OnRunning: func(*cloud.Instance) { s.psRunning() },
		})
		if err != nil {
			return nil, err
		}
		s.psInstances = append(s.psInstances, in)
		s.owned = append(s.owned, in)
	}
	for _, w := range cfg.Workers {
		if err := s.requestWorker(w); err != nil {
			return nil, err
		}
	}
	if s.elastic.Enabled() {
		s.scheduleElasticCheck()
	}
	return s, nil
}

// Cluster exposes the underlying training cluster (for speed series,
// bottleneck checks, and assertions).
func (s *Session) Cluster() *train.Cluster { return s.cluster }

// Revocations returns how many worker revocations the session has
// absorbed.
func (s *Session) Revocations() int { return s.revocations }

// Replacements returns how many replacement instances were requested.
func (s *Session) Replacements() int { return s.replacements }

// TrainingStartedAt returns when the first worker began training.
func (s *Session) TrainingStartedAt() float64 { return s.trainingStartedAt }

// TrainingSeconds returns the time from training start until the
// target was reached; it is only meaningful once Done.
func (s *Session) TrainingSeconds() float64 {
	res := s.cluster.Result()
	if !res.Done {
		return 0
	}
	// The cluster's own TotalSeconds counts from cluster Start, which
	// is when training began.
	return res.TotalSeconds
}

// Done reports whether the target step count was reached.
func (s *Session) Done() bool { return s.cluster.Done() }

// Cost returns the session's bill so far in USD: the summed cost of
// every instance the session launched. On a dedicated provider this
// equals Provider.TotalCost (same instances, same order, so the sum is
// bit-identical); on a shared, multi-session provider it is the only
// correct per-job bill.
func (s *Session) Cost() float64 {
	var sum float64
	for _, in := range s.owned {
		sum += in.Cost(s.provider.Now())
	}
	return sum
}

// Instances returns every instance the session ever launched, in
// launch order.
func (s *Session) Instances() []*cloud.Instance {
	out := make([]*cloud.Instance, len(s.owned))
	copy(out, s.owned)
	return out
}

// requestWorker launches one GPU instance and wires its lifecycle.
func (s *Session) requestWorker(pl Placement) error {
	in, err := s.provider.Launch(cloud.Request{
		Region:    pl.Region,
		GPU:       pl.GPU,
		Tier:      pl.Tier,
		OnRunning: func(in *cloud.Instance) { s.workerUp(in, pl) },
		OnRevoked: func(in *cloud.Instance) { s.workerRevoked(in) },
	})
	if err != nil {
		return err
	}
	s.instances[in.ID] = pl
	s.owned = append(s.owned, in)
	return nil
}

// psRunning counts parameter servers coming up and, once all are
// ready, brings up the workers that waited for them, skipping any
// whose instance was revoked meanwhile.
func (s *Session) psRunning() {
	s.psUp++
	if s.psUp < s.cfg.ParameterServers {
		return
	}
	for _, in := range s.pending {
		if pl, live := s.instances[in.ID]; live {
			s.workerUp(in, pl)
		}
	}
	s.pending = nil
}

// workerUp handles a GPU instance reaching Running.
func (s *Session) workerUp(in *cloud.Instance, pl Placement) {
	if s.cluster.Done() {
		s.provider.Terminate(in)
		return
	}
	if s.psUp < s.cfg.ParameterServers {
		s.pending = append(s.pending, in)
		return
	}
	name := s.joinWorker(pl)
	s.instWorker[in.ID] = name
	s.cfg.Trace.Record(obs.Event{
		T:      s.provider.Now().Seconds(),
		Kind:   "startup",
		Worker: name,
		Value:  float64(in.RunningAt - in.RequestedAt),
	})
}

// joinWorker starts the cluster on first join and adds the worker
// with a cold setup (framework start, session join, graph build,
// dataset download — Fig. 10's cold path).
func (s *Session) joinWorker(pl Placement) string {
	if !s.started {
		s.started = true
		s.trainingStartedAt = s.provider.Now().Seconds()
		s.cluster.Start()
	}
	name, err := s.cluster.AddWorker(train.WorkerSpec{GPU: pl.GPU}, train.JoinMode{Cold: true})
	if err != nil {
		// AddWorker only fails on invalid GPU or unstarted cluster,
		// both impossible here; surface loudly if the invariant breaks.
		panic(fmt.Sprintf("manager: join failed: %v", err))
	}
	return name
}

// workerRevoked handles a preemption: kill the cluster worker and
// apply the replacement policy.
func (s *Session) workerRevoked(in *cloud.Instance) {
	pl, ok := s.instances[in.ID]
	if !ok {
		return
	}
	delete(s.instances, in.ID)
	s.revocations++
	if name, ok := s.instWorker[in.ID]; ok {
		delete(s.instWorker, in.ID)
		// The worker may legitimately be gone already (e.g. session
		// finished); ignore that case but keep training-time errors
		// loud via the cluster's own validation.
		_ = s.cluster.KillWorker(name)
	} else {
		// Revoked before its worker joined (it waited for the
		// parameter servers): no cluster worker records the
		// revocation, so the session does.
		s.cfg.Trace.Record(obs.Event{
			T:      s.provider.Now().Seconds(),
			Kind:   train.EventRevocation,
			Step:   s.cluster.GlobalStep(),
			Detail: fmt.Sprintf("instance %d %v/%v", in.ID, pl.Region, pl.GPU),
		})
	}
	if s.cluster.Done() {
		return
	}
	// An elastic session only replaces down to its floor: above it the
	// resize loop decides when (and where) to regrow — usually after
	// the revocation wave that just took this worker has passed.
	if s.elastic.Enabled() && len(s.instances) >= s.elasticFloor() {
		return
	}
	switch s.cfg.Replacement {
	case ReplaceImmediate:
		s.replace(pl, 0)
	case ReplaceDelayed:
		s.replace(pl, s.cfg.DelaySeconds)
	case ReplaceNone:
	}
}

// Capacity-blocked replacement retry cadence, in seconds of virtual
// time. While the region is inside the post-revocation churn window
// (Fig. 7) the transient pool is actively cycling — revocations are
// freeing slots on minute timescales — so a blocked session polls
// quickly; in a calm region nothing frees until another job finishes
// or the 24 h cap lands, so it backs off.
const (
	capacityRetryChurnSeconds = 20
	capacityRetryCalmSeconds  = 60
)

// replace requests a same-placement instance after delay seconds. On
// a capacity-constrained provider (internal/fleet's shared pool) the
// request can be rejected with cloud.ErrNoCapacity; the session then
// retries on a churn-aware cadence until a slot frees or training
// finishes, counting one replacement for the whole retry loop.
func (s *Session) replace(pl Placement, delay float64) {
	s.replacements++
	var launch func()
	launch = func() {
		if s.cluster.Done() {
			return
		}
		// An elastic grow may have refilled the gap while this
		// replacement was delayed or capacity-blocked; launching anyway
		// would overshoot the pool the policy maintains.
		if s.elastic.Enabled() && len(s.instances) >= s.elasticFloor() {
			return
		}
		err := s.requestWorker(pl)
		switch {
		case err == nil:
			s.cfg.Trace.Record(obs.Event{
				T:      s.provider.Now().Seconds(),
				Kind:   "replace",
				Detail: fmt.Sprintf("%v/%v", pl.Region, pl.GPU),
			})
		case errors.Is(err, cloud.ErrNoCapacity):
			retry := capacityRetryCalmSeconds
			if s.provider.Churning(pl.Region) {
				retry = capacityRetryChurnSeconds
			}
			s.cfg.Trace.Record(obs.Event{
				T:      s.provider.Now().Seconds(),
				Kind:   "replace-blocked",
				Value:  float64(retry),
				Detail: fmt.Sprintf("%v/%v", pl.Region, pl.GPU),
			})
			s.provider.Kernel().After(float64(retry), launch)
		default:
			// Other replacement failures mean an invalid placement,
			// which validate() already excluded.
			panic(fmt.Sprintf("manager: replacement failed: %v", err))
		}
	}
	if delay <= 0 {
		launch()
		return
	}
	s.provider.Kernel().After(delay, launch)
}

// TerminateAll stops every instance the session owns (end of study or
// budget cut). Terminating an already-ended instance is a no-op, so
// iterating the full owned list is safe.
func (s *Session) TerminateAll() {
	for _, in := range s.owned {
		s.provider.Terminate(in)
	}
}
