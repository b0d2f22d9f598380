package train

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func syncConfig(global int, dynamic bool, workers []WorkerSpec) Config {
	return Config{
		Model:         model.ResNet32(),
		Workers:       workers,
		TargetSteps:   600,
		DisableWarmup: true,
		Seed:          61,
		Batch:         &BatchPolicy{GlobalBatch: global, Dynamic: dynamic},
	}
}

// TestSyncRoundsReachTarget pins the basic synchronous loop: rounds
// advance the global step once each, so worker step counts equal the
// global count.
func TestSyncRoundsReachTarget(t *testing.T) {
	res := runCluster(t, syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1)))
	if !res.Done {
		t.Fatalf("sync session did not finish: %+v", res.GlobalSteps)
	}
	for _, w := range res.Workers {
		if w.Steps != 600 {
			t.Fatalf("worker %s did %d steps, want 600 (one per round)", w.Name, w.Steps)
		}
	}
}

// TestSyncRebalanceOnMembershipChange pins the rebalance contract:
// shares re-split on revocation and on join, always summing to the
// exact global batch.
func TestSyncRebalanceOnMembershipChange(t *testing.T) {
	k := &sim.Kernel{}
	cfg := syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1))
	cfg.TargetSteps = 0
	c := MustCluster(k, cfg)
	c.Start()

	sum := func() int {
		total := 0
		for _, s := range c.Shares() {
			total += s
		}
		return total
	}
	if got := sum(); got != 4*model.ReferenceBatch {
		t.Fatalf("initial shares sum %d, want %d", got, 4*model.ReferenceBatch)
	}

	// Revoke the V100 mid-round: survivors absorb its share.
	k.RunUntil(k.Now() + 5)
	live := c.LiveWorkers()
	victim := live[len(live)-1]
	before := c.Shares()
	if err := c.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	after := c.Shares()
	if _, ok := after[victim]; ok {
		t.Fatalf("dead worker still holds a share")
	}
	if got := sum(); got != 4*model.ReferenceBatch {
		t.Fatalf("post-revocation shares sum %d, want %d (was %v, now %v)", got, 4*model.ReferenceBatch, before, after)
	}
	for name, s := range after {
		if s < before[name] {
			t.Fatalf("survivor %s share shrank %d → %d after a revocation", name, before[name], s)
		}
	}

	// A joining replacement takes share back off the survivors.
	if _, err := c.AddWorker(WorkerSpec{GPU: model.V100}, JoinMode{Cold: true}); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(k.Now() + 3600)
	if got := sum(); got != 4*model.ReferenceBatch {
		t.Fatalf("post-join shares sum %d, want %d", got, 4*model.ReferenceBatch)
	}
	if len(c.Shares()) != 4 {
		t.Fatalf("shares cover %d workers, want 4", len(c.Shares()))
	}
}

// TestSyncRevocationMidRoundCompletes pins the barrier against the
// deadlock case: a worker revoked while its contribution is in flight
// must not stall the round, and training must still reach the target.
func TestSyncRevocationMidRoundCompletes(t *testing.T) {
	k := &sim.Kernel{}
	cfg := syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1))
	cfg.TargetSteps = 400
	c := MustCluster(k, cfg)
	c.Start()
	// Mid-round: a fraction of the first round's compute time in.
	k.RunUntil(sim.Time(0.05))
	if err := c.KillWorker(c.LiveWorkers()[0]); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !c.Done() {
		t.Fatalf("cluster stalled after mid-round revocation at step %d", c.GlobalStep())
	}
}

// TestSyncAllWorkersDieThenJoinResumes pins the idle-cluster path: with
// every member dead the rounds stop without completing bogus steps, and
// a later join restarts them.
func TestSyncAllWorkersDieThenJoinResumes(t *testing.T) {
	k := &sim.Kernel{}
	cfg := syncConfig(2*model.ReferenceBatch, true, Homogeneous(model.P100, 2))
	cfg.TargetSteps = 200
	c := MustCluster(k, cfg)
	c.Start()
	k.RunUntil(sim.Time(0.04))
	for _, name := range c.LiveWorkers() {
		if err := c.KillWorker(name); err != nil {
			t.Fatal(err)
		}
	}
	stepAtDeath := c.GlobalStep()
	k.RunUntil(k.Now() + 100)
	if c.GlobalStep() != stepAtDeath {
		t.Fatalf("global step advanced with no live workers: %d → %d", stepAtDeath, c.GlobalStep())
	}
	if _, err := c.AddWorker(WorkerSpec{GPU: model.P100}, JoinMode{Cold: true}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !c.Done() {
		t.Fatalf("cluster did not resume after rejoin (step %d)", c.GlobalStep())
	}
}

// TestSyncRemoveWorkerShrinks pins the voluntary scale-in path: the
// leaver is recorded as a shrink (not a revocation) and the survivors
// carry the full global batch.
func TestSyncRemoveWorkerShrinks(t *testing.T) {
	k := &sim.Kernel{}
	cfg := syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1))
	cfg.TargetSteps = 300
	c := MustCluster(k, cfg)
	c.Start()
	k.RunUntil(sim.Time(10))
	live := c.LiveWorkers()
	if err := c.RemoveWorker(live[len(live)-1]); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !c.Done() {
		t.Fatal("cluster did not finish after scale-in")
	}
	res := c.Result()
	if got := len(res.EventsOf(EventShrink)); got != 1 {
		t.Fatalf("shrink events = %d, want 1", got)
	}
	if got := len(res.EventsOf(EventRevocation)); got != 0 {
		t.Fatalf("revocation events = %d, want 0", got)
	}
	total := 0
	for _, s := range c.Shares() {
		total += s
	}
	if total != 4*model.ReferenceBatch {
		t.Fatalf("post-shrink shares sum %d, want %d", total, 4*model.ReferenceBatch)
	}
}

// TestSyncCheckpointsSequential pins §IV-B's behavior under the round
// barrier: checkpoints happen between rounds and stall the whole
// cluster, so checkpoint count matches the interval.
func TestSyncCheckpointsSequential(t *testing.T) {
	cfg := syncConfig(2*model.ReferenceBatch, true, Homogeneous(model.V100, 2))
	cfg.TargetSteps = 1000
	cfg.CheckpointInterval = 200
	res := runCluster(t, cfg)
	if !res.Done {
		t.Fatal("did not finish")
	}
	if res.CheckpointCount != 4 {
		t.Fatalf("checkpoints = %d, want 4 (1000/200, none after done)", res.CheckpointCount)
	}
}
