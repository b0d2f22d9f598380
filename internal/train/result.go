package train

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/profile"
)

// WorkerStat summarizes one worker's steady-state behavior, the
// quantity Table III reports.
type WorkerStat struct {
	Name         string
	GPU          model.GPU
	Steps        int64
	MeanStepTime float64 // seconds, post-warm-up
	StdStepTime  float64
}

// Result is an immutable snapshot of a finished (or stopped) session.
type Result struct {
	// Done reports whether TargetSteps was reached.
	Done bool
	// TotalSeconds is the time from Start to reaching TargetSteps
	// (only meaningful when Done).
	TotalSeconds float64
	// GlobalSteps is the final global step counter.
	GlobalSteps int64
	// SteadySpeed is the mean windowed cluster speed after warm-up,
	// in steps/second.
	SteadySpeed float64
	// SpeedCoV is the coefficient of variation of the windowed speed.
	SpeedCoV float64
	// SpeedSeries is the per-window speed trace (Fig. 2).
	SpeedSeries []profile.SpeedSample
	// Workers holds per-worker steady-state step times for workers
	// with post-warm-up data.
	Workers []WorkerStat
	// CheckpointCount and CheckpointSeconds total the fault-tolerance
	// overhead actually paid.
	CheckpointCount   int
	CheckpointSeconds float64
	// Events is the session timeline.
	Events []Event
}

// Result snapshots the cluster's current state.
func (c *Cluster) Result() Result {
	series := c.tracker.SpeedSeries()
	steady, cov := steadyOf(series, float64(c.startedAt)+c.warmupHorizonSeconds())
	r := Result{
		Done:              c.done,
		GlobalSteps:       c.globalStep,
		SteadySpeed:       steady,
		SpeedCoV:          cov,
		SpeedSeries:       series,
		CheckpointCount:   c.ckptCount,
		CheckpointSeconds: c.ckptSeconds,
		Events:            c.Events(),
	}
	if c.done {
		r.TotalSeconds = float64(c.doneAt - c.startedAt)
	}
	for _, name := range c.order {
		w := c.workers[name]
		mean, std, ok := c.tracker.WorkerStepTime(name)
		if !ok {
			continue
		}
		r.Workers = append(r.Workers, WorkerStat{
			Name:         name,
			GPU:          w.gpu,
			Steps:        w.stepsDone,
			MeanStepTime: mean,
			StdStepTime:  std,
		})
	}
	return r
}

// warmupHorizonSeconds returns how long the cluster-wide warm-up
// transient lasts: until the slowest initial worker finishes its
// warm-up steps (each at the average warm-up multiplier), plus a
// safety margin.
func (c *Cluster) warmupHorizonSeconds() float64 {
	if c.cfg.DisableWarmup {
		return 0
	}
	var slowest float64
	for _, w := range c.cfg.Workers {
		if t := model.StepTime(w.GPU, c.cfg.Model.GFLOPs); t > slowest {
			slowest = t
		}
	}
	avgMultiplier := (1 + model.WarmupFactor) / 2
	return slowest * model.WarmupSteps * avgMultiplier * 1.15
}

// steadyOf averages the windowed speeds recorded after the warm-up
// horizon, always discarding at least the first window (the paper's
// discard-the-first-100-steps rule). Window times never decrease, so
// the kept windows are a suffix of the series, summed in place: the two
// passes evaluate exactly stats.Mean and stats.CoV over their speeds.
func steadyOf(series []profile.SpeedSample, warmupEndTime float64) (mean, cov float64) {
	start := min(1, len(series))
	for start < len(series) && series[start].Time <= warmupEndTime {
		start++
	}
	kept := series[start:]
	if len(kept) == 0 {
		return 0, 0
	}
	var sum float64
	for _, s := range kept {
		sum += s.Speed
	}
	mean = sum / float64(len(kept))
	if mean == 0 {
		return mean, 0
	}
	var variance float64
	if len(kept) > 1 {
		var ss float64
		for _, s := range kept {
			d := s.Speed - mean
			ss += d * d
		}
		variance = ss / float64(len(kept)-1)
	}
	return mean, math.Sqrt(variance) / mean
}

// WorkerStatByGPU returns the first worker stat for the given GPU
// type, which Table III uses to report "the" K80/P100/V100 worker in a
// mixed cluster.
func (r Result) WorkerStatByGPU(g model.GPU) (WorkerStat, error) {
	for _, ws := range r.Workers {
		if ws.GPU == g {
			return ws, nil
		}
	}
	return WorkerStat{}, fmt.Errorf("train: no worker stat for GPU %v", g)
}

// EventsOf filters the timeline by kind.
func (r Result) EventsOf(kind EventKind) []Event {
	var out []Event
	for _, e := range r.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
