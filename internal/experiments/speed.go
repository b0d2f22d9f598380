package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
	"repro/internal/train"
)

// TableIResult reproduces Table I: steps/second for the simplest
// cluster (one GPU worker, one parameter server) across the four
// canonical models and three GPU types.
type TableIResult struct {
	// Speeds[gpu][modelIdx] holds mean ± std steps/second in
	// CanonicalModels order.
	Speeds map[model.GPU][]struct{ Mean, Std float64 }
}

// PaperTableI holds the paper's published values for side-by-side
// comparison in the rendered output.
var PaperTableI = map[model.GPU][]float64{
	model.K80:  {9.46, 4.56, 2.58, 0.70},
	model.P100: {21.16, 12.19, 6.99, 1.98},
	model.V100: {27.38, 15.61, 8.80, 2.18},
}

func planTableI(p *plan) *campaign.Plan {
	for _, g := range model.AllGPUs() {
		for _, m := range model.CanonicalModels() {
			// 4000 measured steps, matching §III-A.
			p.session(fmt.Sprintf("table1/%v/%s", g, m.Name), train.Config{
				Model:       m,
				Workers:     train.Homogeneous(g, 1),
				TargetSteps: 4000,
			})
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &TableIResult{Speeds: make(map[model.GPU][]struct{ Mean, Std float64 })}
		i := 0
		for _, g := range model.AllGPUs() {
			for range model.CanonicalModels() {
				r := outs[i].(train.Result)
				i++
				res.Speeds[g] = append(res.Speeds[g], struct{ Mean, Std float64 }{
					Mean: r.SteadySpeed,
					Std:  r.SteadySpeed * r.SpeedCoV,
				})
			}
		}
		return res, nil
	})
}

// String renders the table with the paper's values alongside.
func (r *TableIResult) String() string {
	t := newTable("Table I — training speed (steps/s), 1 GPU worker + 1 PS",
		"GPU", "ResNet-15", "ResNet-32", "ShakeShakeSmall", "ShakeShakeBig")
	for _, g := range model.AllGPUs() {
		cells := []string{g.String()}
		for i, s := range r.Speeds[g] {
			cells = append(cells, fmt.Sprintf("%.2f±%.2f (paper %.2f)", s.Mean, s.Std, PaperTableI[g][i]))
		}
		t.addRow(cells...)
	}
	return t.String()
}

// Figure2Result reproduces Fig. 2: the windowed speed trace of each
// canonical model on a single K80 worker.
type Figure2Result struct {
	// Series[modelName] is the per-100-step speed trace.
	Series map[string][]float64
	// SteadyCoV[modelName] is the post-warm-up coefficient of
	// variation (paper: at most 0.02).
	SteadyCoV map[string]float64
}

func planFigure2(p *plan) *campaign.Plan {
	for _, m := range model.CanonicalModels() {
		p.session(fmt.Sprintf("fig2/%s", m.Name), train.Config{
			Model:       m,
			Workers:     train.Homogeneous(model.K80, 1),
			TargetSteps: 4000,
		})
	}
	return p.build(func(outs []any) (Result, error) {
		res := &Figure2Result{Series: make(map[string][]float64), SteadyCoV: make(map[string]float64)}
		for i, m := range model.CanonicalModels() {
			r := outs[i].(train.Result)
			for _, s := range r.SpeedSeries {
				res.Series[m.Name] = append(res.Series[m.Name], s.Speed)
			}
			res.SteadyCoV[m.Name] = r.SpeedCoV
		}
		return res, nil
	})
}

// String renders each model's trace as a sparkline plus summary.
func (r *Figure2Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — training speed vs. steps (K80, windows of 100 steps)\n")
	for _, m := range model.CanonicalModels() {
		series := r.Series[m.Name]
		if len(series) == 0 {
			continue
		}
		last := series[len(series)-1]
		fmt.Fprintf(&b, "%-16s %s  steady %.2f steps/s, CoV %.4f (paper ≤ 0.02)\n",
			m.Name, sparkline(series), last, r.SteadyCoV[m.Name])
	}
	b.WriteString("note: the initial dip is the warm-up the paper discards (first 100 steps)\n")
	return b.String()
}

// Figure3Result reproduces Fig. 3: step time against the normalized
// computation ratio (a) and normalized model complexity (b) for all
// twenty models on K80 and P100.
type Figure3Result struct {
	GPUs []model.GPU
	// Points[gpu] lists (Cnorm, CmNorm, stepSeconds) in zoo order.
	Points map[model.GPU][]Fig3Point
	// Correlations per GPU: Pearson r of step time vs. each feature.
	CorrCnorm map[model.GPU]float64
	CorrCm    map[model.GPU]float64
}

// Fig3Point is one scatter point.
type Fig3Point struct {
	Cnorm, CmNorm, StepSeconds float64
}

func planFigure3(p *plan) *campaign.Plan {
	gpus := []model.GPU{model.K80, model.P100}
	dataset := p.declareSpeedDataset(gpus)
	return p.build(func(outs []any) (Result, error) {
		ds, err := dataset(outs)
		if err != nil {
			return nil, err
		}
		return reduceFigure3(gpus, ds)
	})
}

func reduceFigure3(gpus []model.GPU, ds *speedDataset) (Result, error) {
	res := &Figure3Result{
		GPUs:      gpus,
		Points:    make(map[model.GPU][]Fig3Point),
		CorrCnorm: make(map[model.GPU]float64),
		CorrCm:    make(map[model.GPU]float64),
	}
	// Min-max normalization over the whole dataset, as in §III-B.
	var allCnorm, allCm [][]float64
	for _, g := range gpus {
		for _, m := range ds.models {
			allCnorm = append(allCnorm, []float64{m.ComputationRatio(g)})
			allCm = append(allCm, []float64{m.GFLOPs})
		}
	}
	var cnormScaler, cmScaler regress.MinMaxScaler
	if err := cnormScaler.Fit(allCnorm); err != nil {
		return nil, err
	}
	if err := cmScaler.Fit(allCm); err != nil {
		return nil, err
	}
	for _, g := range gpus {
		var xsN, xsM, ys []float64
		for _, m := range ds.models {
			p := Fig3Point{
				Cnorm:       cnormScaler.Transform([]float64{m.ComputationRatio(g)})[0],
				CmNorm:      cmScaler.Transform([]float64{m.GFLOPs})[0],
				StepSeconds: ds.stepSec[g][m.Name],
			}
			res.Points[g] = append(res.Points[g], p)
			xsN = append(xsN, p.Cnorm)
			xsM = append(xsM, p.CmNorm)
			ys = append(ys, p.StepSeconds)
		}
		res.CorrCnorm[g] = stats.Pearson(xsN, ys)
		res.CorrCm[g] = stats.Pearson(xsM, ys)
	}
	return res, nil
}

// String renders the scatter points and correlations.
func (r *Figure3Result) String() string {
	t := newTable("Fig. 3 — step time vs. normalized computation ratio / model complexity",
		"GPU", "Cnorm", "Cm(norm)", "step time (s)")
	for _, g := range r.GPUs {
		for _, p := range r.Points[g] {
			t.addRow(g.String(),
				fmt.Sprintf("%.3f", p.Cnorm),
				fmt.Sprintf("%.3f", p.CmNorm),
				fmt.Sprintf("%.4f", p.StepSeconds))
		}
	}
	for _, g := range r.GPUs {
		t.addNote("%v: Pearson r (step time, Cnorm) = %.3f; (step time, Cm) = %.3f — paper observes a strong positive correlation",
			g, r.CorrCnorm[g], r.CorrCm[g])
	}
	return t.String()
}
