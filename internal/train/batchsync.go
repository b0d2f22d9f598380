package train

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
)

// This file is the synchronous dynamic-batching mode (Config.Batch):
// training proceeds in global rounds, each processing exactly the
// policy's global minibatch. Every live worker computes its share,
// pushes through the parameter-server shards, and the round — one
// global step — completes when the slowest contribution lands (the
// straggler effect). Shares rebalance on every membership change, so
// revocations slow the survivors down instead of shrinking the
// effective batch (SNIPPETS.md Snippet 2's "train with dynamic
// cluster sizes", with Tyagi & Sharma's speed-proportional shares
// taming mixed-GPU stragglers). The asynchronous mode in worker.go is
// untouched when Batch is nil.

// syncEnabled reports whether the session runs in synchronous rounds.
func (c *Cluster) syncEnabled() bool { return c.cfg.Batch != nil }

// Shares returns the live workers' current batch shares by name (a
// copy); only meaningful in synchronous mode.
func (c *Cluster) Shares() map[string]int {
	out := make(map[string]int, len(c.live))
	for _, w := range c.live {
		out[w.name] = w.share
	}
	return out
}

// rebalance recomputes the live workers' batch shares. It runs on
// every membership change (join, revocation, scale-in) and at Start,
// keeping the global batch exact across any cluster size the session
// passes through.
func (c *Cluster) rebalance() {
	if !c.syncEnabled() {
		return
	}
	live := c.live
	if len(live) == 0 {
		return
	}
	weights := make([]float64, len(live))
	for i, w := range live {
		if c.cfg.Batch.Dynamic {
			weights[i] = model.StepsPerSecond(w.gpu, c.cfg.Model)
		} else {
			weights[i] = 1
		}
	}
	shares := model.BatchShares(c.cfg.Batch.GlobalBatch, weights, model.MinBatchShare, model.MaxBatchShare)
	for i, w := range live {
		w.share = shares[i]
	}
	if c.cfg.Trace != nil {
		var b strings.Builder
		for i, w := range live {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", w.name, shares[i])
		}
		c.cfg.Trace.Record(obs.Event{
			T:      c.k.Now().Seconds(),
			Kind:   EventRebalance,
			Step:   c.globalStep,
			Detail: b.String(),
		})
	}
}

// startRound launches one global step: every live worker draws its
// share-scaled compute time and heads for the parameter servers. With
// no live workers the round waits for the next join.
func (c *Cluster) startRound() {
	if c.done || !c.started {
		return
	}
	if len(c.live) == 0 {
		return
	}
	c.roundActive = true
	c.roundContrib = 0
	c.roundPending = len(c.live)
	for _, w := range c.live {
		w.pending = true
		w.stepStart = c.k.Now()
		mean := w.computeMean * model.BatchTimeFactor(w.share)
		if w.syncDist.Mean() != mean {
			w.syncDist = stats.MakeLogNormalDist(mean, model.StepTimeCoV)
		}
		compute := w.syncDist.Sample(w.rng)
		if !c.cfg.DisableWarmup {
			// Warm-up tracks the collective step in sync mode: the round
			// is a cluster-wide unit, not a per-worker one.
			compute *= model.WarmupMultiplier(c.globalStep)
		}
		c.k.PostAfter(compute, w.pushSyncID)
	}
}

// pushSync pushes one worker's gradient share through every shard,
// mirroring the asynchronous pushUpdate's service draws.
func (c *Cluster) pushSync(w *Worker) {
	if w.dead || c.done {
		return
	}
	w.shardsRemaining = len(c.shards)
	if w.shardsRemaining == 0 {
		c.syncContribution(w)
		return
	}
	for _, shard := range c.shards {
		service := c.serviceDist.Sample(w.rng)
		shard.SubmitID(service, w.shardDoneID)
	}
}

// syncContribution lands one worker's share in the current round.
func (c *Cluster) syncContribution(w *Worker) {
	if c.done || w.dead {
		return // a dead worker's in-flight share was already written off
	}
	w.recordStep()
	if !c.roundActive || !w.pending {
		return
	}
	w.pending = false
	c.roundPending--
	c.roundContrib++
	if c.roundPending == 0 {
		c.finishRound()
	}
}

// finishRound closes the round: the global step advances if anyone
// contributed, the chief checkpoints if due (the barrier waits — the
// chief's graph is busy writing, §IV-B), and the next round starts.
func (c *Cluster) finishRound() {
	c.roundActive = false
	if c.roundContrib == 0 {
		// Every member died mid-round: no gradients landed, so no step.
		// A worker that joined while the doomed round was in flight is
		// live but idle — restart for it; otherwise wait for a join.
		if len(c.live) > 0 {
			c.startRound()
		}
		return
	}
	c.completeGlobalStep()
	if c.done {
		return
	}
	if chief := c.chief; chief != nil && !chief.dead && c.checkpointDue() {
		c.runCheckpointSync(chief)
		return
	}
	c.startRound()
}

// dropFromRound writes a dying worker's pending contribution off the
// current round so the barrier cannot deadlock on a revoked member.
// The round's global batch comes up short by that share — the real
// cost of losing a synchronous worker mid-step.
func (c *Cluster) dropFromRound(w *Worker) {
	if !c.roundActive || !w.pending {
		return
	}
	w.pending = false
	c.roundPending--
	if c.roundPending == 0 {
		c.finishRound()
	}
}

// runCheckpointSync is runCheckpoint for the synchronous mode: the
// whole cluster stalls at the round barrier while the chief writes,
// then the next round starts. A chief revoked mid-write loses the
// save but must not stall the barrier forever. Like the asynchronous
// path, the in-flight state rides the worker and the timer reuses its
// prebound handler.
func (c *Cluster) runCheckpointSync(w *Worker) {
	c.ckptActive = true
	w.ckptSnapshot = c.globalStep
	w.ckptDur = c.ckptDist.Sample(w.rng)
	c.k.PostAfter(w.ckptDur, w.ckptDoneID)
}

// syncJoin folds a newly joined worker into the schedule: shares
// rebalance immediately, and if the cluster was idle (all previous
// members dead, or first join) a fresh round starts. A running round
// or in-flight checkpoint picks the worker up at its next boundary.
func (c *Cluster) syncJoin() {
	c.rebalance()
	if !c.roundActive && !c.ckptActive {
		c.startRound()
	}
}
