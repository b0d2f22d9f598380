package train

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/obs"
)

// WorkerSpec places one GPU worker in the cluster.
type WorkerSpec struct {
	GPU model.GPU
}

// Homogeneous returns n workers of the same GPU type.
func Homogeneous(g model.GPU, n int) []WorkerSpec {
	specs := make([]WorkerSpec, n)
	for i := range specs {
		specs[i] = WorkerSpec{GPU: g}
	}
	return specs
}

// Mixed returns the paper's (x, y, z) cluster notation: x K80s,
// y P100s, z V100s (Table III).
func Mixed(k80, p100, v100 int) []WorkerSpec {
	specs := make([]WorkerSpec, 0, k80+p100+v100)
	specs = append(specs, Homogeneous(model.K80, k80)...)
	specs = append(specs, Homogeneous(model.P100, p100)...)
	specs = append(specs, Homogeneous(model.V100, v100)...)
	return specs
}

// BatchPolicy opts a session into synchronous training with a fixed
// global minibatch split across the live workers. The global batch is
// the invariant — it is a hyperparameter, so membership changes
// rebalance the per-worker shares instead of shrinking the effective
// batch — and each global step completes when the slowest worker has
// pushed its share (the straggler effect heterogeneous clusters pay).
// Dynamic sizing splits shares proportional to worker speed (Tyagi &
// Sharma's heterogeneity-taming batching); a static split gives every
// worker an equal share regardless of GPU.
type BatchPolicy struct {
	// GlobalBatch is the total samples per global step (required).
	// Each worker's share is clamped to model.MinBatchShare and
	// model.MaxBatchShare; when the live worker count makes the clamps
	// and the exact global batch incompatible, the global batch wins.
	GlobalBatch int
	// Dynamic splits shares proportional to per-GPU speed; false
	// splits them equally (the straggler-exposed baseline).
	Dynamic bool
}

func (p *BatchPolicy) validate() error {
	if p.GlobalBatch <= 0 {
		return fmt.Errorf("train: batch policy needs a positive global batch")
	}
	return nil
}

// Config describes one training session.
type Config struct {
	// Model is the CNN being trained.
	Model model.Model
	// Workers is the initial worker placement; Workers[0] is the
	// chief. It may be empty for cloud-managed sessions whose workers
	// join via AddWorker as their instances come up; the first joiner
	// becomes chief.
	Workers []WorkerSpec
	// ParameterServers is the number of parameter-server shards
	// (default 1, the paper's baseline).
	ParameterServers int
	// TargetSteps ends the session once the global step count reaches
	// it; 0 means run until the caller stops the kernel.
	TargetSteps int64
	// CheckpointInterval is Ic in steps; 0 disables checkpointing.
	CheckpointInterval int64
	// DisableWarmup skips the warm-up transient; microbenchmarks that
	// start measurement after warm-up use this to save simulated time.
	DisableWarmup bool
	// Batch, when set, runs the session synchronously under a fixed
	// global minibatch with per-worker shares rebalanced on every
	// membership change. Nil keeps the asynchronous parameter-server
	// loop byte-for-byte.
	Batch *BatchPolicy
	// Seed drives all randomness in the session.
	Seed int64
	// Trace, when non-nil, is the session's timeline: it receives
	// every Event* kind (checkpoints, revocations, joins, rebalances,
	// windowed speed samples) as it happens. Result carries no
	// timeline, only the speed series; nil records nothing. Recording
	// draws no randomness and schedules no events, so a traced
	// session's Result is identical to an untraced one's.
	Trace *obs.Recorder
}

// validate normalizes defaults and rejects impossible configurations.
func (c *Config) validate() error {
	if c.Model.Name == "" {
		return fmt.Errorf("train: config has no model")
	}
	for i, w := range c.Workers {
		if !w.GPU.Valid() {
			return fmt.Errorf("train: worker %d has invalid GPU %d", i, int(w.GPU))
		}
	}
	if c.ParameterServers == 0 {
		c.ParameterServers = 1
	}
	if c.ParameterServers < 0 {
		return fmt.Errorf("train: negative parameter server count %d", c.ParameterServers)
	}
	if c.TargetSteps < 0 || c.CheckpointInterval < 0 {
		return fmt.Errorf("train: negative step counts")
	}
	if c.Batch != nil {
		if err := c.Batch.validate(); err != nil {
			return err
		}
	}
	return nil
}
