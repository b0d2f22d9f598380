package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/train"
)

// TableIIIResult reproduces Table III: the average step time of an
// individual worker training ResNet-32 in homogeneous clusters of
// 1/2/4/8 workers and in the heterogeneous (2,1,1) cluster.
type TableIIIResult struct {
	// StepMs[gpu][columnIdx] is mean ± std step time in milliseconds;
	// columns are (1,0,0)-style baseline, 2, 4, 8, then (2,1,1).
	StepMs map[model.GPU][]struct{ Mean, Std float64 }
}

// tableIIIColumns labels the cluster configurations.
var tableIIIColumns = []string{"baseline (1)", "homog (2)", "homog (4)", "homog (8)", "hetero (2,1,1)"}

// paperTableIII holds the published milliseconds for reference.
var paperTableIII = map[model.GPU][]float64{
	model.K80:  {229.85, 232.08, 229.57, 227.46, 221.16},
	model.P100: {105.45, 105.27, 112.73, 198.11, 107.61},
	model.V100: {92.38, 95.90, 106.36, 191.72, 93.52},
}

func planTableIII(p *plan) *campaign.Plan {
	resnet32 := model.ResNet32()
	declare := func(g model.GPU, label string, workers []train.WorkerSpec) {
		p.session(fmt.Sprintf("table3/%v/%s", g, label), train.Config{
			Model:       resnet32,
			Workers:     workers,
			TargetSteps: 800 * int64(len(workers)),
		})
	}
	for _, g := range model.AllGPUs() {
		for _, n := range []int{1, 2, 4, 8} {
			declare(g, fmt.Sprintf("homog-%d", n), train.Homogeneous(g, n))
		}
		declare(g, "hetero-2-1-1", train.Mixed(2, 1, 1))
	}
	return p.build(func(outs []any) (Result, error) {
		res := &TableIIIResult{StepMs: make(map[model.GPU][]struct{ Mean, Std float64 })}
		i := 0
		for _, g := range model.AllGPUs() {
			for range tableIIIColumns {
				ws, err := outs[i].(train.Result).WorkerStatByGPU(g)
				if err != nil {
					return nil, err
				}
				i++
				res.StepMs[g] = append(res.StepMs[g], struct{ Mean, Std float64 }{
					Mean: ws.MeanStepTime * 1000,
					Std:  ws.StdStepTime * 1000,
				})
			}
		}
		return res, nil
	})
}

// String renders the per-worker step times with the paper's values.
func (r *TableIIIResult) String() string {
	t := newTable("Table III — per-worker step time (ms), ResNet-32",
		append([]string{"GPU"}, tableIIIColumns...)...)
	for _, g := range model.AllGPUs() {
		cells := []string{g.String()}
		for i, s := range r.StepMs[g] {
			cells = append(cells, fmt.Sprintf("%.1f±%.1f (p %.1f)", s.Mean, s.Std, paperTableIII[g][i]))
		}
		t.addRow(cells...)
	}
	t.addNote("shape to verify: K80 flat through 8 workers; P100/V100 inflate at 8 (PS saturation); heterogeneity harmless")
	return t.String()
}

// Figure4Result reproduces Fig. 4: cluster speed vs. number of P100
// workers for the four canonical models.
type Figure4Result struct {
	// Speeds[modelName][i] is the cluster speed with i+1 workers.
	Speeds map[string][]float64
}

func planFigure4(p *plan) *campaign.Plan {
	for _, m := range model.CanonicalModels() {
		for n := 1; n <= 8; n++ {
			steps := int64(600 * n)
			if m.Name == "ShakeShakeBig" {
				steps = int64(300 * n) // slow model; fewer steps suffice
			}
			p.session(fmt.Sprintf("fig4/%s/%d", m.Name, n), train.Config{
				Model:            m,
				Workers:          train.Homogeneous(model.P100, n),
				ParameterServers: 1,
				TargetSteps:      steps,
			})
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure4Result{Speeds: make(map[string][]float64)}
		i := 0
		for _, m := range model.CanonicalModels() {
			for n := 1; n <= 8; n++ {
				res.Speeds[m.Name] = append(res.Speeds[m.Name], outs[i].(train.Result).SteadySpeed)
				i++
			}
		}
		return res, nil
	})
}

// String renders the scaling curves.
func (r *Figure4Result) String() string {
	t := newTable("Fig. 4 — cluster speed (steps/s) vs. #P100 workers, 1 PS",
		"model", "1", "2", "3", "4", "5", "6", "7", "8")
	for _, m := range model.CanonicalModels() {
		cells := []string{m.Name}
		for _, s := range r.Speeds[m.Name] {
			cells = append(cells, fmt.Sprintf("%.1f", s))
		}
		t.addRow(cells...)
	}
	t.addNote("paper: ResNet-32 and ShakeShakeSmall plateau past 4 workers (PS bottleneck); ShakeShakeBig is GPU-bound")
	return t.String()
}

// Figure12Result reproduces Fig. 12: ResNet-15 and ResNet-32 cluster
// speed with one vs. two parameter servers, plus the detector verdict
// that would trigger the mitigation.
type Figure12Result struct {
	// Speeds[modelName][psCount-1][i] is speed with i+1 workers.
	Speeds map[string][2][]float64
	// MaxGainPct is the largest observed 2-PS improvement.
	MaxGainPct float64
	// DetectorFlagged reports whether CM-DARE's detector flags the
	// 8-worker, 1-PS ResNet-32 run against the Σ-speeds prediction.
	DetectorFlagged   bool
	DetectorDeviation float64
}

func planFigure12(p *plan) *campaign.Plan {
	models := []model.Model{model.ResNet15(), model.ResNet32()}
	for _, m := range models {
		for _, ps := range []int{1, 2} {
			for n := 1; n <= 8; n++ {
				p.session(fmt.Sprintf("fig12/%s/ps%d/%d", m.Name, ps, n), train.Config{
					Model:            m,
					Workers:          train.Homogeneous(model.P100, n),
					ParameterServers: ps,
					TargetSteps:      int64(700 * n),
				})
			}
		}
	}
	// Detection (§VI-B): compare predicted Σ-speeds against the
	// measured 8-worker, 1-PS ResNet-32 run.
	r32 := models[1]
	detector := p.session("fig12/detector", train.Config{
		Model:       r32,
		Workers:     train.Homogeneous(model.P100, 8),
		TargetSteps: 6000,
	})
	return p.build(func(outs []any) (Result, error) {
		res := &Figure12Result{Speeds: make(map[string][2][]float64)}
		i := 0
		for _, m := range models {
			var both [2][]float64
			for psIdx := range both {
				for n := 1; n <= 8; n++ {
					both[psIdx] = append(both[psIdx], outs[i].(train.Result).SteadySpeed)
					i++
				}
			}
			res.Speeds[m.Name] = both
			for j := range both[0] {
				if gain := (both[1][j] - both[0][j]) / both[0][j] * 100; gain > res.MaxGainPct {
					res.MaxGainPct = gain
				}
			}
		}
		predicted := 8 / model.StepTimeModel(model.P100, r32)
		verdict, err := core.DetectBottleneck(predicted, outs[detector].(train.Result).SpeedSeries)
		if err != nil {
			return nil, err
		}
		res.DetectorFlagged = verdict.Bottlenecked
		res.DetectorDeviation = verdict.Deviation
		return res, nil
	})
}

// String renders both panels plus the detector outcome.
func (r *Figure12Result) String() string {
	t := newTable("Fig. 12 — PS bottleneck mitigation: speed (steps/s) vs. #P100 workers",
		"model", "PS", "1", "2", "3", "4", "5", "6", "7", "8")
	for _, name := range []string{"ResNet-15", "ResNet-32"} {
		both := r.Speeds[name]
		for psIdx, series := range both {
			cells := []string{name, fmt.Sprintf("%d", psIdx+1)}
			for _, s := range series {
				cells = append(cells, fmt.Sprintf("%.1f", s))
			}
			t.addRow(cells...)
		}
	}
	t.addNote("max 2-PS improvement: %.1f%% (paper: up to 70.6%%)", r.MaxGainPct)
	t.addNote("detector on 8×P100 ResNet-32, 1 PS: deviation %.1f%%, bottleneck flagged = %v (threshold 6.7%%)",
		r.DetectorDeviation*100, r.DetectorFlagged)
	return t.String()
}
