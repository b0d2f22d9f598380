package experiments

import (
	"fmt"
	"sort"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/train"
)

// Figure5Result reproduces Fig. 5: checkpoint duration vs. checkpoint
// size for all twenty zoo models (five checkpoints each).
type Figure5Result struct {
	Points []Fig5Point
	// Corr is the Pearson correlation between size and mean time.
	Corr float64
}

// Fig5Point is one model's aggregate.
type Fig5Point struct {
	Model   string
	SizeMB  float64
	MeanSec float64
	CoV     float64
}

func planFigure5(p *plan) *campaign.Plan {
	p.unit("ckpt-dataset", func(s int64) (any, error) {
		return collectCheckpointDataset(5, s), nil
	})
	return p.build(func(outs []any) (Result, error) {
		return reduceFigure5(outs[0].(*checkpointDataset))
	})
}

func reduceFigure5(ds *checkpointDataset) (Result, error) {
	res := &Figure5Result{}
	var sizes, times []float64
	for _, m := range ds.models {
		samples := ds.samples[m.Name]
		mean, _ := stats.MeanStd(samples)
		p := Fig5Point{
			Model:   m.Name,
			SizeMB:  float64(m.CheckpointBytes()) / 1e6,
			MeanSec: mean,
			CoV:     stats.CoV(samples),
		}
		res.Points = append(res.Points, p)
		sizes = append(sizes, p.SizeMB)
		times = append(times, p.MeanSec)
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].SizeMB < res.Points[j].SizeMB })
	res.Corr = stats.Pearson(sizes, times)
	return res, nil
}

// String renders the scatter.
func (r *Figure5Result) String() string {
	t := newTable("Fig. 5 — checkpoint duration vs. size (5 checkpoints per model)",
		"model", "size (MB)", "time (s)", "CoV")
	for _, p := range r.Points {
		t.addRow(p.Model, fmt.Sprintf("%.1f", p.SizeMB), fmt.Sprintf("%.2f", p.MeanSec), fmt.Sprintf("%.3f", p.CoV))
	}
	t.addNote("Pearson r(size, time) = %.3f; paper observes positive correlation, CoV 0.018–0.073", r.Corr)
	return t.String()
}

// CheckpointSequentialResult reproduces §IV-B's additivity check: 100
// steps with checkpointing take one checkpoint time longer than
// without, because training and checkpointing are sequential.
type CheckpointSequentialResult struct {
	// Per100WithCkpt and Per100WithoutCkpt are seconds per 100 steps.
	Per100WithCkpt    float64
	Per100WithoutCkpt float64
	// MeasuredCkptSeconds is the independently measured checkpoint
	// time; additivity holds when Difference ≈ MeasuredCkptSeconds.
	MeasuredCkptSeconds float64
	Difference          float64
}

func planCheckpointSequential(p *plan) *campaign.Plan {
	// Both arms run inside one unit with the same seed: the paired
	// design cancels step-time noise so the difference isolates the
	// checkpoint overhead (§IV-B's methodology).
	p.unit("ckptseq/pair", func(s int64) (any, error) {
		base := train.Config{
			Model:         model.ResNet32(),
			Workers:       train.Homogeneous(model.K80, 1),
			TargetSteps:   2000,
			DisableWarmup: true,
			Seed:          s,
		}
		without, err := runSession(base)
		if err != nil {
			return nil, err
		}
		withCfg := base
		withCfg.CheckpointInterval = 100
		with, err := runSession(withCfg)
		if err != nil {
			return nil, err
		}
		return [2]train.Result{without, with}, nil
	})
	return p.build(func(outs []any) (Result, error) {
		pair := outs[0].([2]train.Result)
		without, with := pair[0], pair[1]
		res := &CheckpointSequentialResult{
			Per100WithCkpt:    with.TotalSeconds / 20,
			Per100WithoutCkpt: without.TotalSeconds / 20,
		}
		if with.CheckpointCount > 0 {
			res.MeasuredCkptSeconds = with.CheckpointSeconds / float64(with.CheckpointCount)
		}
		res.Difference = res.Per100WithCkpt - res.Per100WithoutCkpt
		return res, nil
	})
}

// String renders the §IV-B comparison.
func (r *CheckpointSequentialResult) String() string {
	t := newTable("§IV-B — checkpointing is sequential with training (ResNet-32, K80)",
		"quantity", "seconds", "paper")
	t.addRow("100 steps with checkpointing", fmt.Sprintf("%.2f", r.Per100WithCkpt), "25.64")
	t.addRow("100 steps without checkpointing", fmt.Sprintf("%.2f", r.Per100WithoutCkpt), "21.93")
	t.addRow("difference", fmt.Sprintf("%.2f", r.Difference), "3.71")
	t.addRow("measured checkpoint time", fmt.Sprintf("%.2f", r.MeasuredCkptSeconds), "3.84±0.25")
	t.addNote("additivity holds when the difference matches the measured checkpoint time")
	return t.String()
}
