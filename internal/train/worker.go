package train

import (
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Worker is one GPU worker's state machine: compute a gradient, push
// it through every parameter-server shard, repeat. Asynchrony across
// workers comes from each worker looping at its own pace; coupling
// comes only from the shared shard queues.
//
// Every timer a worker arms reuses one of the handlers bound once at
// construction (pushFn, shardDoneFn, joinFn, ckptDoneFn): the step
// loop schedules millions of callbacks per session, and a fresh
// closure per callback was the kernel hot path's dominant allocation.
// The per-flight state those closures used to capture (shards still
// pending, checkpoint snapshot, join mode) lives in fields instead —
// safe because a worker has at most one step, one join, and one
// checkpoint in flight at a time.
type Worker struct {
	c           *Cluster
	id          int // creation index, the number in name
	name        string
	gpu         model.GPU
	computeMean float64
	// computeDist freezes the worker's steady-state step-time
	// distribution; syncDist memoizes the share-scaled variant, which
	// only changes when synchronous-mode shares rebalance.
	computeDist stats.LogNormalDist
	syncDist    stats.LogNormalDist
	rng         *stats.Rng

	dead bool
	// share is the worker's synchronous-mode batch share, set by every
	// rebalance; pending marks it as owing the current round its
	// contribution.
	share     int
	pending   bool
	stepsDone int64
	stepStart sim.Time
	// steady holds the step times of steps past the worker's first
	// speedWindowSteps, the warm-up the paper discards (Table III).
	steady stats.Accumulator

	// Prebound timer handlers, interned in the kernel's callback table
	// once per worker lifetime and scheduled by id thereafter.
	pushID      sim.FnID // async compute done → pushUpdate
	pushSyncID  sim.FnID // sync compute done → cluster.pushSync
	shardDoneID sim.FnID // one shard served this worker's update
	joinID      sim.FnID // replacement overhead elapsed → join session
	ckptDoneID  sim.FnID // checkpoint write finished

	// shardsRemaining counts the in-flight step's unserved shards.
	shardsRemaining int

	// joinMode parameterizes the pending AddWorker join.
	joinMode JoinMode

	// ckptSnapshot/ckptDur describe the in-flight checkpoint.
	ckptSnapshot int64
	ckptDur      float64

	// Padding to 256 bytes, pinned by TestWorkerSizeIsCacheLineMultiple;
	// see that test for why.
	_ [16]byte
}

// bindHandlers interns the worker's reusable timer handlers.
func (w *Worker) bindHandlers() {
	k := w.c.k
	w.pushID = k.Register(w.pushUpdate)
	w.pushSyncID = k.Register(func() { w.c.pushSync(w) })
	w.shardDoneID = k.Register(w.shardDone)
	w.joinID = k.Register(w.join)
	w.ckptDoneID = k.Register(w.ckptDone)
}

// startStep begins the compute phase of the next step.
func (w *Worker) startStep() {
	if w.dead || w.c.done {
		return
	}
	w.stepStart = w.c.k.Now()
	compute := w.computeDist.Sample(w.rng)
	if !w.c.cfg.DisableWarmup {
		compute *= model.WarmupMultiplier(w.stepsDone)
	}
	w.c.k.PostAfter(compute, w.pushID)
}

// pushUpdate submits the gradient to every shard; the step's
// communication phase ends when the slowest shard responds.
func (w *Worker) pushUpdate() {
	if w.dead || w.c.done {
		return
	}
	w.shardsRemaining = len(w.c.shards)
	if w.shardsRemaining == 0 {
		// Degenerate zero-PS configuration: local training only.
		w.finishStep()
		return
	}
	for _, shard := range w.c.shards {
		service := w.c.serviceDist.Sample(w.rng)
		shard.SubmitID(service, w.shardDoneID)
	}
}

// shardDone records one shard's response; the step's communication
// phase ends when the last shard answers. In synchronous mode the
// completed share lands in the round barrier instead of chaining the
// worker's own next step.
func (w *Worker) shardDone() {
	w.shardsRemaining--
	if w.shardsRemaining != 0 {
		return
	}
	if w.c.syncEnabled() {
		w.c.syncContribution(w)
		return
	}
	w.finishStep()
}

// finishStep accounts a completed step and chains the next action:
// another step, or a checkpoint if this worker is the chief and one is
// due.
func (w *Worker) finishStep() {
	if w.dead {
		return // revoked mid-flight: gradient discarded
	}
	w.recordStep()
	w.c.completeGlobalStep()
	if w == w.c.chief && w.c.checkpointDue() {
		w.c.runCheckpoint(w)
		return
	}
	w.startStep()
}

// recordStep accounts one finished step; steps past the warm-up feed
// the worker's steady-state step-time statistics.
func (w *Worker) recordStep() {
	w.stepsDone++
	if w.stepsDone > speedWindowSteps {
		w.steady.Add(float64(w.c.k.Now() - w.stepStart))
	}
}

// join enters the running session once the replacement overhead
// elapsed — the deferred half of Cluster.AddWorker. A worker retired
// while it booted stays out.
func (w *Worker) join() {
	c := w.c
	if c.done || w.dead {
		return
	}
	c.enlist(w)
	c.addEvent(EventJoin, w.name)
	if w.joinMode.ReuseChiefIP {
		c.rollback()
		c.chief = w
	} else if c.chief == nil {
		c.chief = w
		c.addEvent(EventChiefHandoff, w.name)
	}
	if c.syncEnabled() {
		c.syncJoin()
		return
	}
	w.startStep()
}

// ckptDone commits (or writes off) the in-flight checkpoint described
// by ckptSnapshot/ckptDur.
func (w *Worker) ckptDone() {
	c := w.c
	if c.syncEnabled() {
		// Synchronous mode: the whole cluster stalled at the round
		// barrier while the chief wrote; resume it.
		c.ckptActive = false
		if c.done {
			return
		}
		if !w.dead {
			c.commitCheckpoint(w)
		}
		c.startRound()
		return
	}
	if w.dead {
		// Chief revoked mid-checkpoint: the save is lost. CM-DARE's
		// takeover means the next chief will checkpoint at its next
		// boundary.
		return
	}
	c.commitCheckpoint(w)
	w.startStep()
}
