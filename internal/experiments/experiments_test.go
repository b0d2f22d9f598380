package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// runByID executes one registered experiment sequentially.
func runByID(t *testing.T, id string, seed int64) Result {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := r.Run(seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// skipShort gates the heaviest campaigns so `go test -short` stays
// fast; the default run keeps full-depth coverage.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy measurement campaign; skipped in -short mode")
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "table2", "table3", "fig4", "fig5",
		"ckptseq", "table4", "fig6", "fig7", "table5", "fig8", "fig9",
		"fig10", "fig11", "fig12", "endtoend", "sweep",
		// Extras follow the paper artifacts; they are not part of
		// "all" (the golden snapshot pins that stream).
		"revmodels", "fleet", "providers", "regret", "elastic",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, r := range All() {
		if r.ID == "revmodels" {
			t.Fatal(`extras must stay out of All() — "all" is the golden stream`)
		}
	}
	if _, ok := ByID("table1"); !ok {
		t.Fatal("ByID(table1) not found")
	}
	if _, ok := ByID("revmodels"); !ok {
		t.Fatal("ByID(revmodels) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) should fail")
	}
}

// TestPlanTracedIsolatesConcurrentCollectors plans four runners at
// once, each into its own collector: every recorder must land in its
// own runner's collector, under that runner's ID. Planning is cheap,
// so this runs in -short mode too, where CI adds -race.
func TestPlanTracedIsolatesConcurrentCollectors(t *testing.T) {
	ids := []string{"fig2", "table1", "sweep", "elastic"}
	cols := make([]*obs.Collector, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		col := obs.NewCollector()
		cols[i] = col
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				r.PlanTraced(42, col)
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		keys := cols[i].Units()
		if len(keys) == 0 {
			t.Errorf("%s: collector is empty", id)
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, id+"/") {
				t.Errorf("%s: collector holds %q", id, k)
				break
			}
		}
	}
}

func TestTableI(t *testing.T) {
	res := runByID(t, "table1", 1)
	r := res.(*TableIResult)
	for g, speeds := range PaperTableI {
		for i, want := range speeds {
			got := r.Speeds[g][i].Mean
			if math.Abs(got-want)/want > 0.04 {
				t.Errorf("%v model %d: %.2f steps/s, paper %.2f", g, i, got, want)
			}
		}
	}
	out := r.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "V100") {
		t.Error("render missing expected content")
	}
}

func TestFigure2(t *testing.T) {
	res := runByID(t, "fig2", 2)
	r := res.(*Figure2Result)
	for name, cov := range r.SteadyCoV {
		if cov > 0.03 {
			t.Errorf("%s steady CoV = %.4f, paper reports ≤0.02", name, cov)
		}
	}
	series := r.Series["ResNet-15"]
	if len(series) != 40 {
		t.Fatalf("ResNet-15 series has %d windows, want 40", len(series))
	}
	// Warm-up visible: first window clearly slower than last.
	if series[0] >= series[len(series)-1]*0.85 {
		t.Error("warm-up dip not visible in the speed trace")
	}
	if !strings.Contains(r.String(), "Fig. 2") {
		t.Error("render missing title")
	}
}

func TestFigure3(t *testing.T) {
	res := runByID(t, "fig3", 3)
	r := res.(*Figure3Result)
	for _, g := range r.GPUs {
		if len(r.Points[g]) != 20 {
			t.Fatalf("%v has %d points, want 20", g, len(r.Points[g]))
		}
		if r.CorrCnorm[g] < 0.9 || r.CorrCm[g] < 0.9 {
			t.Errorf("%v correlations %.3f/%.3f, want strong positive",
				g, r.CorrCnorm[g], r.CorrCm[g])
		}
		for _, p := range r.Points[g] {
			if p.Cnorm < 0 || p.CmNorm < 0 || p.CmNorm > 1 {
				t.Errorf("%v point outside normalized range: %+v", g, p)
			}
		}
	}
}

func TestTableII(t *testing.T) {
	skipShort(t)
	res := runByID(t, "table2", 4)
	r := res.(*TableIIResult)
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	byName := make(map[string]RegressionRow)
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.KFoldMAE < 0 || row.TestMAE < 0 {
			t.Errorf("%s has negative MAE", row.Name)
		}
	}
	// Paper's ordering: per-GPU SVR-RBF beats the per-GPU linear model.
	for _, g := range []model.GPU{model.K80, model.P100} {
		lin := byName["Univariate, "+g.String()]
		rbf := byName["SVR RBF Kernel, "+g.String()]
		if rbf.KFoldMAE >= lin.KFoldMAE {
			t.Errorf("%v: SVR-RBF k-fold MAE %.4f should beat linear %.4f", g, rbf.KFoldMAE, lin.KFoldMAE)
		}
		if rbf.C < 10 || rbf.C > 100 || rbf.Epsilon < 0.01 || rbf.Epsilon > 0.1 {
			t.Errorf("%v: grid-search result (%.0f, %.2f) outside the paper's grid", g, rbf.C, rbf.Epsilon)
		}
	}
	// GPU-agnostic multivariate is the paper's worst family; it should
	// not beat the best GPU-specific model.
	agn := byName["Multivariate, GPU-agnostic"]
	best := byName["SVR RBF Kernel, K80"]
	if agn.KFoldMAE <= best.KFoldMAE {
		t.Errorf("GPU-agnostic multivariate (%.4f) should not beat GPU-specific SVR-RBF (%.4f)",
			agn.KFoldMAE, best.KFoldMAE)
	}
	if !strings.Contains(r.String(), "Table II") {
		t.Error("render missing title")
	}
}

func TestTableIII(t *testing.T) {
	res := runByID(t, "table3", 5)
	r := res.(*TableIIIResult)
	for _, g := range model.AllGPUs() {
		if len(r.StepMs[g]) != 5 {
			t.Fatalf("%v has %d columns, want 5", g, len(r.StepMs[g]))
		}
	}
	k80 := r.StepMs[model.K80]
	if infl := k80[3].Mean / k80[0].Mean; infl > 1.12 {
		t.Errorf("K80 8-worker inflation %.2f, want ≈1 (no bottleneck)", infl)
	}
	p100 := r.StepMs[model.P100]
	if infl := p100[3].Mean / p100[0].Mean; infl < 1.4 {
		t.Errorf("P100 8-worker inflation %.2f, want ≥1.4 (saturation)", infl)
	}
	v100 := r.StepMs[model.V100]
	if infl := v100[4].Mean / v100[0].Mean; infl > 1.1 {
		t.Errorf("V100 heterogenous-cluster inflation %.2f, want ≈1", infl)
	}
}

func TestFigure4(t *testing.T) {
	res := runByID(t, "fig4", 6)
	r := res.(*Figure4Result)
	r15 := r.Speeds["ResNet-15"]
	r32 := r.Speeds["ResNet-32"]
	if len(r15) != 8 || len(r32) != 8 {
		t.Fatal("series must span 1–8 workers")
	}
	// ResNet-15 grows the most in absolute terms.
	if r15[7]-r15[0] < r32[7]-r32[0] {
		t.Error("ResNet-15 should show the most obvious upward trend")
	}
	// ResNet-32 plateaus past 4 workers.
	if gain := (r32[7] - r32[4]) / r32[4]; gain > 0.35 {
		t.Errorf("ResNet-32 5→8 worker gain %.2f, want plateau", gain)
	}
	// ShakeShakeBig stays far below the axis ceiling (GPU-bound look).
	ssb := r.Speeds["ShakeShakeBig"]
	if ssb[7] > 25 {
		t.Errorf("ShakeShakeBig at 8 workers = %.1f steps/s, expected small", ssb[7])
	}
}

func TestFigure5(t *testing.T) {
	res := runByID(t, "fig5", 7)
	r := res.(*Figure5Result)
	if len(r.Points) != 20 {
		t.Fatalf("points = %d, want 20", len(r.Points))
	}
	if r.Corr < 0.95 {
		t.Errorf("size-time correlation = %.3f, want strong positive", r.Corr)
	}
	for _, p := range r.Points {
		if p.CoV < 0.005 || p.CoV > 0.12 {
			t.Errorf("%s CoV = %.3f outside Fig. 5's plausible band", p.Model, p.CoV)
		}
	}
	// Size range matches Fig. 5's axis (up to ≈210 MB).
	last := r.Points[len(r.Points)-1]
	if last.SizeMB < 150 || last.SizeMB > 215 {
		t.Errorf("largest checkpoint %.0f MB, want ≈200", last.SizeMB)
	}
}

func TestCheckpointSequential(t *testing.T) {
	res := runByID(t, "ckptseq", 8)
	r := res.(*CheckpointSequentialResult)
	if math.Abs(r.Difference-r.MeasuredCkptSeconds) > 0.6 {
		t.Errorf("difference %.2f s vs measured checkpoint %.2f s — additivity violated",
			r.Difference, r.MeasuredCkptSeconds)
	}
	if math.Abs(r.MeasuredCkptSeconds-3.84) > 0.5 {
		t.Errorf("checkpoint time %.2f s, paper 3.84", r.MeasuredCkptSeconds)
	}
}

func TestTableIV(t *testing.T) {
	skipShort(t)
	res := runByID(t, "table4", 9)
	r := res.(*TableIVResult)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	svr := r.Rows[3]
	uni := r.Rows[0]
	// On our substrate the checkpoint process is only mildly
	// nonlinear (throughput ramp), so SVR-RBF and linear are close;
	// require SVR to be competitive rather than strictly dominant, a
	// deviation from the paper's clear-cut SVR win.
	if svr.KFoldMAE > uni.KFoldMAE*1.25 {
		t.Errorf("SVR-RBF k-fold MAE %.4f should be competitive with univariate %.4f (Table IV)",
			svr.KFoldMAE, uni.KFoldMAE)
	}
	if svr.TestMAPE > 12 {
		t.Errorf("SVR-RBF test MAPE %.1f%%, paper 5.38%%", svr.TestMAPE)
	}
}

func TestFigure6(t *testing.T) {
	res := runByID(t, "fig6", 10)
	r := res.(*Figure6Result)
	if len(r.Summaries) != 8 {
		t.Fatalf("summaries = %d, want 8", len(r.Summaries))
	}
	for _, s := range r.Summaries {
		if s.MeanTotal <= 0 || s.MeanTotal > 100 {
			t.Errorf("%v/%v/%v total %.1f s outside (0, 100)", s.GPU, s.Tier, s.Region, s.MeanTotal)
		}
	}
}

func TestFigure7(t *testing.T) {
	res := runByID(t, "fig7", 11)
	r := res.(*Figure7Result)
	if len(r.Immediate) != 3 || len(r.Delayed) != 3 {
		t.Fatal("expected results for all three GPU types")
	}
	for i := range r.Immediate {
		imm, del := r.Immediate[i], r.Delayed[i]
		if math.Abs(imm.MeanTotal-del.MeanTotal) > 6 {
			t.Errorf("%v: means %.1f vs %.1f differ beyond Fig. 7's ≈4 s",
				imm.Requested, imm.MeanTotal, del.MeanTotal)
		}
		if imm.CoVTotal < del.CoVTotal {
			t.Errorf("%v: immediate CoV %.3f should exceed delayed %.3f",
				imm.Requested, imm.CoVTotal, del.CoVTotal)
		}
	}
}

func TestTableV(t *testing.T) {
	res := runByID(t, "table5", 12)
	r := res.(*TableVResult)
	cells := r.Study.TableV()
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	if !strings.Contains(r.String(), "us-west1") {
		t.Error("render missing regions")
	}
}

func TestFigure8(t *testing.T) {
	res := runByID(t, "fig8", 13)
	out := res.String()
	if !strings.Contains(out, "europe-west1") || !strings.Contains(out, "MTTR") {
		t.Error("render missing expected content")
	}
}

func TestFigure9(t *testing.T) {
	res := runByID(t, "fig9", 14)
	r := res.(*Figure9Result)
	k80 := r.Histograms[model.K80]
	peak, _ := k80.Peak()
	if peak < 8 || peak > 11 {
		t.Errorf("K80 peak hour = %d, paper sees 10:00", peak)
	}
	v100 := r.Histograms[model.V100]
	quiet := v100.Counts[16] + v100.Counts[17] + v100.Counts[18] + v100.Counts[19]
	if frac := float64(quiet) / float64(v100.Total()); frac > 0.03 {
		t.Errorf("V100 quiet-window fraction = %.3f, want ≈0", frac)
	}
}

func TestFigure10(t *testing.T) {
	res := runByID(t, "fig10", 15)
	r := res.(*Figure10Result)
	r15 := r.Seconds["ResNet-15"]
	if math.Abs(r15[0]-75.6) > 5 {
		t.Errorf("ResNet-15 cold = %.1f s, paper 75.6", r15[0])
	}
	if math.Abs(r15[1]-14.8) > 3 {
		t.Errorf("ResNet-15 warm = %.1f s, paper 14.8", r15[1])
	}
	ssb := r.Seconds["ShakeShakeBig"]
	if d := ssb[1] - r15[1]; math.Abs(d-15) > 4 {
		t.Errorf("ShakeShakeBig−ResNet-15 warm delta = %.1f s, paper ≈15", d)
	}
	// Cold always exceeds warm.
	for name, v := range r.Seconds {
		if v[0] <= v[1] {
			t.Errorf("%s: cold %.1f ≤ warm %.1f", name, v[0], v[1])
		}
	}
}

func TestFigure11(t *testing.T) {
	skipShort(t)
	res := runByID(t, "fig11", 16)
	r := res.(*Figure11Result)
	if len(r.OverheadSeconds) != 5 {
		t.Fatalf("points = %d, want 5", len(r.OverheadSeconds))
	}
	// Overhead grows with steps since the checkpoint and is
	// substantial at 3.5k steps (paper: up to ≈300 s).
	first, last := r.OverheadSeconds[0], r.OverheadSeconds[4]
	if last <= first {
		t.Errorf("overhead should grow: %.0f s → %.0f s", first, last)
	}
	if last < 60 || last > 400 {
		t.Errorf("overhead at 3.5k steps = %.0f s, want within Fig. 11's range", last)
	}
}

func TestFigure12(t *testing.T) {
	res := runByID(t, "fig12", 17)
	r := res.(*Figure12Result)
	if r.MaxGainPct < 35 {
		t.Errorf("max 2-PS gain = %.1f%%, paper reports up to 70.6%%", r.MaxGainPct)
	}
	if !r.DetectorFlagged {
		t.Error("detector should flag the saturated 8×P100 ResNet-32 run")
	}
	if r.DetectorDeviation <= 0.067 {
		t.Errorf("deviation = %.3f, want above the 6.7%% threshold", r.DetectorDeviation)
	}
	// 2 PS never hurts.
	for name, both := range r.Speeds {
		for i := range both[0] {
			if both[1][i] < both[0][i]*0.93 {
				t.Errorf("%s: 2 PS slower than 1 PS at %d workers (%.1f vs %.1f)",
					name, i+1, both[1][i], both[0][i])
			}
		}
	}
}

func TestEndToEnd(t *testing.T) {
	skipShort(t)
	res := runByID(t, "endtoend", 18)
	r := res.(*EndToEndResult)
	if math.Abs(r.ErrorPct) > 5 {
		t.Errorf("prediction error = %.2f%%, want within ±5%% (paper: 0.8%%)", r.ErrorPct)
	}
	if r.Estimate.ExpectedRevocations < 0 || r.Estimate.ExpectedRevocations > 1 {
		t.Errorf("expected revocations = %.3f, implausible", r.Estimate.ExpectedRevocations)
	}
	if r.PredictedCost <= 0 || r.ActualCostMean <= 0 {
		t.Error("costs should be positive")
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	s := sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length = %d, want 4", len([]rune(s)))
	}
	if sparkline([]float64{0, 0}) != "  " {
		t.Error("all-zero sparkline should be blank")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("T", "a", "bb")
	tb.addRow("x", "y")
	tb.addNote("n=%d", 1)
	out := tb.String()
	for _, want := range []string{"T\n", "a", "bb", "x", "y", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
