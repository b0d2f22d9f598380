package train

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Event kinds the session records on Config.Trace, its timeline.
const (
	// EventCheckpoint: the chief finished writing a checkpoint.
	EventCheckpoint = "checkpoint"
	// EventRevocation: a worker was revoked / killed.
	EventRevocation = "revocation"
	// EventJoin: a (replacement) worker joined and started training.
	EventJoin = "join"
	// EventRollback: the session restarted from the last checkpoint
	// (unmodified TensorFlow's chief-IP-reuse behavior, §V-E).
	EventRollback = "rollback"
	// EventChiefHandoff: checkpoint duty moved to another worker
	// (CM-DARE's transient-TensorFlow behavior).
	EventChiefHandoff = "chief-handoff"
	// EventShrink: a worker was retired voluntarily (an elastic
	// scale-in, not a revocation).
	EventShrink = "shrink"
	// EventRebalance: synchronous-mode batch shares were recomputed;
	// Detail lists them in the workers' creation order.
	EventRebalance = "rebalance"
	// EventSpeed: a speed window closed; Step counts completed global
	// steps and Value is the window's steps/s.
	EventSpeed = "speed"
)

// speedWindowSteps is the paper's measurement window (§III-A): cluster
// speed is averaged over 100-step windows, and each worker's first 100
// steps are discarded as warm-up before its step-time statistics.
const speedWindowSteps = 100

// Cluster is one asynchronous parameter-server training session on the
// simulation kernel. It is not safe for concurrent use; all methods
// must run on the simulation thread.
type Cluster struct {
	k   *sim.Kernel
	rng *stats.Rng
	cfg Config

	shards []*sim.Server
	// workers finds a worker by name for the name-keyed API; order
	// holds every worker ever created, and live the ones training now:
	// the configured workers from construction and an added worker
	// from its join, each until it is retired. Both are in creation
	// order.
	workers map[string]*Worker
	order   []*Worker
	live    []*Worker
	// serviceDist and ckptDist freeze the session-constant log-normal
	// parameterizations (per-shard service time, checkpoint write
	// time) so the per-step hot path skips their log/sqrt setup.
	serviceDist stats.LogNormalDist
	ckptDist    stats.LogNormalDist
	chief       *Worker // nil while no worker holds checkpoint duty
	// chiefHandoff selects CM-DARE's behavior (true: checkpoint duty
	// moves to a surviving worker when the chief is revoked) versus
	// unmodified TensorFlow (false: duty waits for a replacement).
	chiefHandoff bool

	started      bool
	globalStep   int64
	lastCkptStep int64
	done         bool
	startedAt    sim.Time
	doneAt       sim.Time

	// completedSteps counts every global step ever completed; unlike
	// globalStep it never rolls back. Every speedWindowSteps of them
	// close one speed window, opened at windowStart.
	completedSteps int64
	windowStart    float64
	series         []SpeedSample

	ckptCount   int
	ckptSeconds float64

	stepHooks map[int64][]func()
	// nextHook is the smallest registered hook step (0 when none),
	// letting the per-step hot path skip the map probe entirely.
	nextHook int64

	// Synchronous-mode state (Config.Batch != nil; see batchsync.go).
	// roundPending counts the live workers whose contribution the
	// current round still awaits (those with Worker.pending set).
	roundPending int
	roundContrib int
	roundActive  bool
	ckptActive   bool
}

// NewCluster builds a session on the kernel. The chief is the first
// worker. Workers do not begin training until Start.
func NewCluster(k *sim.Kernel, cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		k:            k,
		rng:          stats.NewRng(cfg.Seed),
		cfg:          cfg,
		workers:      make(map[string]*Worker),
		chiefHandoff: true,
		stepHooks:    make(map[int64][]func()),
	}
	for i := 0; i < cfg.ParameterServers; i++ {
		c.shards = append(c.shards, sim.NewServer(k))
	}
	if cfg.ParameterServers > 0 {
		c.serviceDist = stats.MakeLogNormalDist(shardServiceSeconds(cfg.Model, cfg.ParameterServers), psServiceCoV)
	}
	c.ckptDist = stats.MakeLogNormalDist(CheckpointSeconds(cfg.Model), ckptTimeCoV)
	for _, spec := range cfg.Workers {
		w := c.newWorker(spec)
		c.live = append(c.live, w)
		if c.chief == nil {
			c.chief = w
		}
	}
	return c, nil
}

// MustCluster is NewCluster that panics on error, for experiment code
// with static configurations.
func MustCluster(k *sim.Kernel, cfg Config) *Cluster {
	c, err := NewCluster(k, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// newWorker registers a worker without starting it.
func (c *Cluster) newWorker(spec WorkerSpec) *Worker {
	id := len(c.order)
	name := fmt.Sprintf("%s-%d", spec.GPU, id)
	compute := model.StepTime(spec.GPU, c.cfg.Model.GFLOPs) - baselineRoundTripSeconds(c.cfg.Model)
	if compute <= 0 {
		// The calibration guarantees positive compute for the zoo; a
		// violation means a future model/GPU addition broke it.
		panic(fmt.Sprintf("train: non-positive compute time for %s on %v", c.cfg.Model.Name, spec.GPU))
	}
	w := &Worker{
		c:           c,
		id:          id,
		name:        name,
		gpu:         spec.GPU,
		computeMean: compute,
		computeDist: stats.MakeLogNormalDist(compute, model.StepTimeCoV),
		rng:         c.rng.Fork(),
	}
	w.bindHandlers()
	c.workers[name] = w
	c.order = append(c.order, w)
	return w
}

// enlist makes a joining worker live, keeping live in creation order.
func (c *Cluster) enlist(w *Worker) {
	i := len(c.live)
	for i > 0 && c.live[i-1].id > w.id {
		i--
	}
	c.live = slices.Insert(c.live, i, w)
}

// Start launches every configured worker at the current virtual time.
func (c *Cluster) Start() {
	if c.started {
		panic("train: cluster already started")
	}
	c.started = true
	c.startedAt = c.k.Now()
	c.windowStart = c.k.Now().Seconds()
	if c.syncEnabled() {
		c.rebalance()
		c.startRound()
		return
	}
	for _, w := range c.live {
		w.startStep()
	}
}

// Chief returns the current chief worker's name, or "" when no worker
// holds checkpoint duty.
func (c *Cluster) Chief() string {
	if c.chief == nil {
		return ""
	}
	return c.chief.name
}

// SetChiefHandoff selects between CM-DARE chief takeover (true, the
// default) and unmodified TensorFlow (false).
func (c *Cluster) SetChiefHandoff(enabled bool) { c.chiefHandoff = enabled }

// GlobalStep returns the current global step (after any rollbacks).
func (c *Cluster) GlobalStep() int64 { return c.globalStep }

// LastCheckpointStep returns the global step of the latest completed
// checkpoint.
func (c *Cluster) LastCheckpointStep() int64 { return c.lastCkptStep }

// Done reports whether the session reached its target steps.
func (c *Cluster) Done() bool { return c.done }

// LiveWorkers returns the names of workers currently training, in
// creation order.
func (c *Cluster) LiveWorkers() []string {
	var out []string
	for _, w := range c.live {
		out = append(out, w.name)
	}
	return out
}

// PSMaxUtilization returns the simulator's busiest-shard utilization,
// which tests read to confirm that the parameter servers saturate.
func (c *Cluster) PSMaxUtilization() float64 {
	var max float64
	for _, s := range c.shards {
		if u := s.Utilization(); u > max {
			max = u
		}
	}
	return max
}

// WhenStep registers fn to run the first time the global step reaches
// exactly step. Registration after the step has passed is an error
// surfaced by panic (it would silently never fire).
func (c *Cluster) WhenStep(step int64, fn func()) {
	if step <= c.globalStep {
		panic(fmt.Sprintf("train: WhenStep(%d) at or before current step %d", step, c.globalStep))
	}
	c.stepHooks[step] = append(c.stepHooks[step], fn)
	if c.nextHook == 0 || step < c.nextHook {
		c.nextHook = step
	}
}

// KillWorker revokes a worker immediately (the simulation analogue of
// a preemption, and of the paper's manual revocations in §V-E). The
// worker's in-flight step is discarded. If the chief dies and chief
// handoff is enabled, checkpoint duty moves to the oldest surviving
// worker.
func (c *Cluster) KillWorker(name string) error {
	return c.retire(name, EventRevocation)
}

// RemoveWorker retires a worker voluntarily — the elastic manager's
// scale-in path. Mechanically identical to a revocation (the worker's
// in-flight step is discarded, chief duty hands off) but recorded as a
// shrink, so timelines distinguish policy decisions from preemptions.
func (c *Cluster) RemoveWorker(name string) error {
	return c.retire(name, EventShrink)
}

// retire is the shared exit path for revocations and scale-ins.
func (c *Cluster) retire(name, kind string) error {
	w, ok := c.workers[name]
	if !ok {
		return fmt.Errorf("train: no worker %q", name)
	}
	if w.dead {
		return fmt.Errorf("train: worker %q already dead", name)
	}
	w.dead = true
	c.addEvent(kind, name)
	i := slices.Index(c.live, w)
	if i < 0 {
		return nil // retired while it booted: it held no share and no duty
	}
	c.live = slices.Delete(c.live, i, i+1)
	if w == c.chief {
		c.chief = nil
		if c.chiefHandoff && len(c.live) > 0 {
			c.chief = c.live[0]
			c.addEvent(EventChiefHandoff, c.chief.name)
		}
	}
	if c.syncEnabled() {
		// Survivors absorb the leaver's batch share from the next round;
		// the current round completes without its contribution.
		c.rebalance()
		c.dropFromRound(w)
	}
	return nil
}

// JoinMode controls how a replacement worker enters the session.
type JoinMode struct {
	// Cold marks a newly requested server (framework start + session
	// join + graph setup + dataset download); warm reuses an existing
	// server (no download). Fig. 10's two bars.
	Cold bool
	// ReuseChiefIP reproduces unmodified TensorFlow's recomputation
	// behavior (§V-E): the new worker binds the revoked chief's
	// address, becomes chief, and the session restarts from the last
	// checkpoint, discarding progress since.
	ReuseChiefIP bool
}

// AddWorker schedules a new worker to join the running session after
// the calibrated replacement overhead. It returns the worker's name
// immediately; the worker is live, trains and can hold checkpoint
// duty only once joined, and never joins if retired while it boots.
func (c *Cluster) AddWorker(spec WorkerSpec, mode JoinMode) (string, error) {
	if !spec.GPU.Valid() {
		return "", fmt.Errorf("train: invalid GPU %d", int(spec.GPU))
	}
	if !c.started {
		return "", fmt.Errorf("train: cluster not started")
	}
	w := c.newWorker(spec)
	overhead := ReplacementSeconds(c.cfg.Model, mode.Cold)
	overhead = w.rng.LogNormal(overhead, replacementOverheadCoV)
	w.joinMode = mode
	c.k.PostAfter(overhead, w.joinID)
	return w.name, nil
}

// rollback discards progress since the last checkpoint.
func (c *Cluster) rollback() {
	c.addEvent(EventRollback, "")
	c.globalStep = c.lastCkptStep
}

// addEvent records a timeline entry at the current time and step.
func (c *Cluster) addEvent(kind, worker string) {
	c.cfg.Trace.Record(obs.Event{
		T:      c.k.Now().Seconds(),
		Kind:   kind,
		Worker: worker,
		Step:   c.globalStep,
	})
}

// completeGlobalStep advances the global counter, closes a speed
// window every speedWindowSteps completed steps, runs step hooks, and
// finishes the session at the target.
func (c *Cluster) completeGlobalStep() {
	c.globalStep++
	c.completedSteps++
	if c.completedSteps%speedWindowSteps == 0 {
		now := c.k.Now().Seconds()
		speed := 0.0
		if elapsed := now - c.windowStart; elapsed > 0 {
			speed = speedWindowSteps / elapsed
		}
		c.series = append(c.series, SpeedSample{Step: c.completedSteps, Time: now, Speed: speed})
		c.windowStart = now
		c.cfg.Trace.Record(obs.Event{T: now, Kind: EventSpeed, Step: c.completedSteps, Value: speed})
	}
	// nextHook tracks the smallest registered hook step, so the per-step
	// hot path pays one integer compare instead of a map probe. WhenStep
	// only registers future steps and the counter climbs one step at a
	// time (rollbacks replay the same integers), so equality cannot be
	// stepped over.
	if c.nextHook != 0 && c.globalStep == c.nextHook {
		hooks := c.stepHooks[c.globalStep]
		delete(c.stepHooks, c.globalStep)
		c.nextHook = 0
		for s := range c.stepHooks {
			if c.nextHook == 0 || s < c.nextHook {
				c.nextHook = s
			}
		}
		for _, fn := range hooks {
			fn()
		}
	}
	if c.cfg.TargetSteps > 0 && c.globalStep >= c.cfg.TargetSteps && !c.done {
		c.done = true
		c.doneAt = c.k.Now()
	}
}

// checkpointDue reports whether the chief should checkpoint now.
func (c *Cluster) checkpointDue() bool {
	return c.cfg.CheckpointInterval > 0 &&
		c.globalStep-c.lastCkptStep >= c.cfg.CheckpointInterval &&
		!c.done
}

// runCheckpoint stalls the chief for the checkpoint duration; training
// and checkpointing are sequential on the chief (§IV-B), while other
// workers keep training. The in-flight snapshot/duration live on the
// worker (a worker checkpoints at most once at a time, and a revoked
// chief never checkpoints again), so the timer reuses the worker's
// prebound handler instead of allocating a closure per checkpoint.
func (c *Cluster) runCheckpoint(w *Worker) {
	w.ckptSnapshot = c.globalStep
	w.ckptDur = c.ckptDist.Sample(w.rng)
	c.k.PostAfter(w.ckptDur, w.ckptDoneID)
}

// commitCheckpoint records a successfully written checkpoint.
func (c *Cluster) commitCheckpoint(w *Worker) {
	c.lastCkptStep = w.ckptSnapshot
	c.ckptCount++
	c.ckptSeconds += w.ckptDur
	c.addEvent(EventCheckpoint, w.name)
}
