// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each iteration regenerates the artifact end to
// end on the simulated substrate (measurement campaign + analysis),
// so `go test -bench=.` doubles as a smoke test that every experiment
// still runs and as a cost profile of the reproduction itself.
//
// To regenerate and *read* the artifacts, use `go run ./cmd/repro
// -exp all` instead; benchmarks discard the rendered output.
package repro_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// runExperiment executes one registered experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the seed per iteration so repeated runs exercise fresh
		// campaigns rather than replaying one.
		res, err := runner.Run(42 + int64(i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if res.String() == "" {
			b.Fatalf("%s rendered empty output", id)
		}
	}
}

// BenchmarkTableI regenerates Table I: training speed of the simplest
// cluster for four models × three GPU types.
func BenchmarkTableI(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure2 regenerates Fig. 2: speed vs. step count on K80.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3 regenerates Fig. 3: step time vs. normalized
// computation and model complexity for the twenty-model zoo.
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTableII regenerates Table II: the eight step-time
// prediction models with k-fold CV and grid search.
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTableIII regenerates Table III: per-worker step time
// across homogeneous and heterogeneous clusters.
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure4 regenerates Fig. 4: cluster speed vs. P100 count.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5 regenerates Fig. 5: checkpoint time vs. size.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkCheckpointSequential regenerates §IV-B's additivity check.
func BenchmarkCheckpointSequential(b *testing.B) { runExperiment(b, "ckptseq") }

// BenchmarkTableIV regenerates Table IV: checkpoint-time predictors.
func BenchmarkTableIV(b *testing.B) { runExperiment(b, "table4") }

// checkpointSearchData is Table IV's SVR input: every zoo model's
// total checkpoint size (min-max normalized) against five noisy
// checkpoint timings each, split 4:1 — an 80-sample training set.
func checkpointSearchData(b *testing.B) ([][]float64, []float64) {
	b.Helper()
	rng := stats.NewRng(1)
	var X [][]float64
	var y []float64
	for _, m := range model.Zoo() {
		for i := 0; i < 5; i++ {
			X = append(X, []float64{float64(m.CkptDataBytes+m.CkptMetaBytes+m.CkptIndexBytes) / 1e6})
			y = append(y, rng.LogNormal(train.CheckpointSeconds(m), 0.025))
		}
	}
	var scaler regress.MinMaxScaler
	X, err := scaler.FitTransform(X)
	if err != nil {
		b.Fatal(err)
	}
	trX, trY, _, _, err := regress.TrainTestSplit(X, y, 0.8, stats.NewRng(2))
	if err != nil {
		b.Fatal(err)
	}
	return trX, trY
}

// BenchmarkSVRGridSearch runs Table IV's SVR grid search: five RBF
// bandwidths × the paper's 100-point (C, ε) grid × five folds on 80
// samples, 2,500 fits sharing one Gram matrix per (kernel, fold). The
// search spreads its 25 tasks over GOMAXPROCS goroutines; run it with
// -cpu 1 to compare single-core cost.
func BenchmarkSVRGridSearch(b *testing.B) {
	X, y := checkpointSearchData(b)
	kernels := []regress.Kernel{
		regress.RBF{Sigma: 0.05}, regress.RBF{Sigma: 0.1},
		regress.RBF{Sigma: 0.2}, regress.RBF{Sigma: 0.35}, regress.RBF{Sigma: 0.5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, _, err := regress.GridSearchSVRKernels(kernels, regress.PaperSVRGrid(), X, y, 5, stats.NewRng(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVRFit fits one SVR on the same 80 samples: the unit of work
// the grid search repeats.
func BenchmarkSVRFit(b *testing.B) {
	X, y := checkpointSearchData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &regress.SVR{Kernel: regress.RBF{Sigma: 0.2}, C: 50, Epsilon: 0.05}
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates Fig. 6: startup-stage breakdown.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7 regenerates Fig. 7: post-revocation startup times.
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTableV regenerates Table V: the twelve-day revocation
// campaign.
func BenchmarkTableV(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkFigure8 regenerates Fig. 8: lifetime CDFs per region/GPU.
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9 regenerates Fig. 9: revocations by hour of day.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates Fig. 10: replacement overheads.
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11 regenerates Fig. 11: recomputation overhead of
// chief-IP reuse vs. CM-DARE takeover.
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12 regenerates Fig. 12: bottleneck mitigation with a
// second parameter server, plus the detector verdict.
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkEndToEnd regenerates §VI-A: the Eq. 4/5 training-time
// prediction validated against full managed sessions.
func BenchmarkEndToEnd(b *testing.B) { runExperiment(b, "endtoend") }

// BenchmarkSweep regenerates the scenario sweep: one managed session
// per (size, GPU, region, tier) grid cell.
func BenchmarkSweep(b *testing.B) { runExperiment(b, "sweep") }

// BenchmarkFleet runs the fleet scheduler comparison: every (regime,
// scheduler, replication) cell is a multi-job simulation on a shared
// capacity-constrained transient pool, so this benchmark tracks the
// cost of the fleet subsystem end to end (workload generation,
// admission, capacity accounting, per-job sessions).
func BenchmarkFleet(b *testing.B) { runExperiment(b, "fleet") }

// BenchmarkProviders runs the cross-provider arbitrage comparison:
// every (regime, fleet, replication) cell is a multi-market fleet
// simulation, so this benchmark tracks the cost of the provider
// registry and cross-market scheduling end to end.
func BenchmarkProviders(b *testing.B) { runExperiment(b, "providers") }

// BenchmarkRevModels runs the revocation-regime comparison: managed
// transient sessions under every registered lifetime model, nearly all
// of it the sim kernel and the asynchronous step loop.
func BenchmarkRevModels(b *testing.B) { runExperiment(b, "revmodels") }

// BenchmarkRegret runs the predictive scheduler's regret comparison:
// every scheduler's fleet against the hindsight oracle, including the
// predictive scheduler's history-fed SVR fits.
func BenchmarkRegret(b *testing.B) { runExperiment(b, "regret") }

// BenchmarkElastic runs the elastic mixed-cluster comparison: managed
// sessions in the synchronous dynamic-batching mode under static,
// elastic and surge policies.
func BenchmarkElastic(b *testing.B) { runExperiment(b, "elastic") }

// BenchmarkCampaignWorkers runs a fixed batch of experiments through
// the campaign engine at increasing pool sizes, measuring how the
// reproduction scales with workers (the -parallel knob of cmd/repro).
func BenchmarkCampaignWorkers(b *testing.B) {
	batch := []string{"table1", "fig2", "fig4", "fig10", "sweep"}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plans := make([]*campaign.Plan, len(batch))
				for pi, id := range batch {
					runner, ok := experiments.ByID(id)
					if !ok {
						b.Fatalf("unknown experiment %q", id)
					}
					plans[pi] = runner.Plan(42 + int64(i))
				}
				// done runs on a worker, where the benchmark must not
				// call FailNow; the first failure stops the batch.
				var failed error
				dropped := campaign.Engine{Workers: workers}.RunEach(plans, func(pi int, o campaign.Outcome) bool {
					if o.Err != nil {
						failed = o.Err
					} else if o.Value.(experiments.Result).String() == "" {
						failed = fmt.Errorf("%s: empty campaign output", batch[pi])
					}
					return failed == nil
				})
				if err := errors.Join(failed, dropped); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ------------------------------------------------------
//
// The benchmarks below vary the design knobs the reproduction's
// results hinge on, reporting the resulting cluster speed as a custom
// metric. They quantify the sensitivity of the headline shapes
// (Fig. 4's plateau, Fig. 12's mitigation, §IV's overhead) to those
// choices.

// benchClusterSpeed runs one training configuration per iteration and
// reports its steady speed.
func benchClusterSpeed(b *testing.B, workers int, ps int, ckptInterval int64) {
	b.Helper()
	b.ReportAllocs()
	var speed float64
	for i := 0; i < b.N; i++ {
		k := &sim.Kernel{}
		c, err := train.NewCluster(k, train.Config{
			Model:              model.ResNet32(),
			Workers:            train.Homogeneous(model.P100, workers),
			ParameterServers:   ps,
			TargetSteps:        int64(600 * workers),
			CheckpointInterval: ckptInterval,
			DisableWarmup:      true,
			Seed:               int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		k.Run()
		speed = c.Result().SteadySpeed
	}
	b.ReportMetric(speed, "steps/s")
}

// BenchmarkAblationParameterServers sweeps the shard count for the
// saturated 8×P100 ResNet-32 cluster: the knob behind Fig. 12.
func BenchmarkAblationParameterServers(b *testing.B) {
	for _, ps := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("ps=%d", ps), func(b *testing.B) {
			benchClusterSpeed(b, 8, ps, 0)
		})
	}
}

// BenchmarkAblationClusterSize sweeps worker count at one shard: the
// knob behind Fig. 4's plateau.
func BenchmarkAblationClusterSize(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			benchClusterSpeed(b, n, 1, 0)
		})
	}
}

// BenchmarkAblationSyncBatch runs one synchronous session of the mixed
// 2×K80 + P100 + V100 cluster per iteration, with equal shares and with
// speed-proportional ones (Tyagi & Sharma's dynamic batching): the knob
// behind the elastic extra's mixed clusters. Its ns/op is the cost of
// the sync-batch round loop.
func BenchmarkAblationSyncBatch(b *testing.B) {
	for _, dynamic := range []bool{false, true} {
		name := "shares=equal"
		if dynamic {
			name = "shares=dynamic"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var speed float64
			for i := 0; i < b.N; i++ {
				k := &sim.Kernel{}
				c, err := train.NewCluster(k, train.Config{
					Model:         model.ResNet32(),
					Workers:       train.Mixed(2, 1, 1),
					TargetSteps:   4800,
					DisableWarmup: true,
					Seed:          int64(i),
					Batch:         &train.BatchPolicy{GlobalBatch: 4 * model.ReferenceBatch, Dynamic: dynamic},
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				k.Run()
				speed = c.Result().SteadySpeed
			}
			b.ReportMetric(speed, "steps/s")
		})
	}
}

// BenchmarkAblationCheckpointInterval sweeps Ic for a single-K80
// session, the fault-tolerance/overhead trade-off of §IV: smaller
// intervals bound revocation loss but depress effective speed.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	for _, ic := range []int64{500, 1000, 4000, 16000} {
		b.Run(fmt.Sprintf("ic=%d", ic), func(b *testing.B) {
			b.ReportAllocs()
			var overheadPct float64
			for i := 0; i < b.N; i++ {
				k := &sim.Kernel{}
				c, err := train.NewCluster(k, train.Config{
					Model:              model.ResNet32(),
					Workers:            train.Homogeneous(model.K80, 1),
					TargetSteps:        16000,
					CheckpointInterval: ic,
					DisableWarmup:      true,
					Seed:               int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				k.Run()
				res := c.Result()
				overheadPct = res.CheckpointSeconds / res.TotalSeconds * 100
			}
			b.ReportMetric(overheadPct, "ckpt-overhead-%")
		})
	}
}
