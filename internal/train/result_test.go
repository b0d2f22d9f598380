package train

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// steadyOracle is the filter steadyOf replaces: gather every window
// after index 0 that ends past warm-up, then summarize with the stats
// package.
func steadyOracle(series []SpeedSample, warmupEndTime float64) (mean, cov float64) {
	var used []float64
	for i, s := range series {
		if i == 0 || s.Time <= warmupEndTime {
			continue
		}
		used = append(used, s.Speed)
	}
	if len(used) == 0 {
		return 0, 0
	}
	return stats.Mean(used), stats.CoV(used)
}

// TestSteadyOfMatchesStatsOracle pins the buffer-free summary to the
// bits of stats.Mean and stats.CoV over the windows the filter keeps.
func TestSteadyOfMatchesStatsOracle(t *testing.T) {
	windows := func(times, speeds []float64) []SpeedSample {
		out := make([]SpeedSample, len(times))
		for i := range times {
			out[i] = SpeedSample{Step: int64(100 * (i + 1)), Time: times[i], Speed: speeds[i]}
		}
		return out
	}
	type tc struct {
		name    string
		series  []SpeedSample
		warmupS float64
	}
	cases := []tc{
		{"empty", nil, 0},
		{"single window", windows([]float64{10}, []float64{9.5}), 0},
		{"all inside warm-up", windows([]float64{10, 20, 30}, []float64{4, 9, 9.5}), 30},
		{"warm-up ends on a sample", windows([]float64{10, 20, 30, 40, 50}, []float64{4, 9, 9.5, 9.4, 9.6}), 30},
		{"all-zero speeds", windows([]float64{10, 20, 30, 40}, []float64{0, 0, 0, 0}), 0},
	}
	rng := stats.NewRng(17)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		times := make([]float64, n)
		speeds := make([]float64, n)
		var now float64
		for i := range times {
			// Equal consecutive times happen when two windows close at
			// one simulated instant.
			if rng.Intn(4) > 0 {
				now += rng.Exponential(10)
			}
			times[i] = now
			speeds[i] = rng.Normal(9, 0.3)
		}
		warmup := rng.Uniform(0, now)
		if n > 0 && rng.Intn(2) == 0 {
			warmup = times[rng.Intn(n)]
		}
		cases = append(cases, tc{"random", windows(times, speeds), warmup})
	}
	for i, c := range cases {
		gotMean, gotCoV := steadyOf(c.series, c.warmupS)
		wantMean, wantCoV := steadyOracle(c.series, c.warmupS)
		if math.Float64bits(gotMean) != math.Float64bits(wantMean) || math.Float64bits(gotCoV) != math.Float64bits(wantCoV) {
			t.Errorf("case %d (%s): steadyOf = (%v, %v), oracle = (%v, %v)", i, c.name, gotMean, gotCoV, wantMean, wantCoV)
		}
	}
	if m, cov := steadyOf(cases[3].series, cases[3].warmupS); m != 9.5 || cov == 0 {
		t.Errorf("a window ending exactly at warm-up must be dropped: mean %v, CoV %v", m, cov)
	}
}

// TestSpeedWindowsAreExact pins the windowing on one async session
// with a chief-IP-reuse rollback and one sync session, both started
// after time zero: window i closes at completed step 100·(i+1), counted
// without rollbacks; its speed is exactly 100 over the time since the
// previous window, the first window opening at Start; and the trace
// carries each window as a speed event.
func TestSpeedWindowsAreExact(t *testing.T) {
	async := Config{
		Model:              model.ResNet15(),
		Workers:            Homogeneous(model.K80, 2),
		TargetSteps:        3000,
		CheckpointInterval: 1000,
		DisableWarmup:      true,
		Seed:               19,
	}
	sync := syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1))
	for _, tc := range []struct {
		name     string
		cfg      Config
		rollback bool
	}{{"async", async, true}, {"sync", sync, false}} {
		k := &sim.Kernel{}
		rec := obs.NewRecorder()
		tc.cfg.Trace = rec
		c := MustCluster(k, tc.cfg)
		if tc.rollback {
			c.SetChiefHandoff(false)
			chief := c.Chief()
			c.WhenStep(1600, func() {
				if err := c.KillWorker(chief); err != nil {
					t.Error(err)
				}
				if _, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{ReuseChiefIP: true}); err != nil {
					t.Error(err)
				}
			})
		}
		k.RunUntil(sim.Time(3))
		c.Start()
		k.Run()
		res := c.Result()
		if !res.Done || len(res.SpeedSeries) == 0 {
			t.Fatalf("%s: session stopped at step %d with %d windows", tc.name, res.GlobalSteps, len(res.SpeedSeries))
		}
		prev := 3.0
		for i, s := range res.SpeedSeries {
			if s.Step != int64(100*(i+1)) {
				t.Fatalf("%s: window %d closes at step %d, want %d", tc.name, i, s.Step, 100*(i+1))
			}
			if want := 100 / (s.Time - prev); s.Time <= prev || math.Float64bits(s.Speed) != math.Float64bits(want) {
				t.Fatalf("%s: window %d speed %v over (%v, %v], want %v", tc.name, i, s.Speed, prev, s.Time, want)
			}
			prev = s.Time
		}
		// Only a rollback lets the completed-step count outrun the
		// global step.
		last := res.SpeedSeries[len(res.SpeedSeries)-1].Step
		rolledBack := len(rec.EventsOf(EventRollback)) == 1
		if rolledBack != tc.rollback || (last > res.GlobalSteps) != rolledBack {
			t.Fatalf("%s: rollback=%v, last window at completed step %d, global step %d", tc.name, rolledBack, last, res.GlobalSteps)
		}
		speeds := rec.EventsOf(EventSpeed)
		if len(speeds) != len(res.SpeedSeries) {
			t.Fatalf("%s: %d speed events for %d windows", tc.name, len(speeds), len(res.SpeedSeries))
		}
		for i, e := range speeds {
			s := res.SpeedSeries[i]
			if e.T != s.Time || e.Step != s.Step || e.Value != s.Speed {
				t.Fatalf("%s: speed event %d = %+v, window %+v", tc.name, i, e, s)
			}
		}
	}
}

// TestWorkerStatsSkipWarmup pins the per-worker statistics: a worker
// with at most 100 finished steps has no WorkerStat, a stat's mean
// leaves out the worker's first 100 (slow, warm-up) steps, and in an
// async session with no rollback the stats account for every global
// step.
func TestWorkerStatsSkipWarmup(t *testing.T) {
	t.Run("warming_worker_has_no_stat", func(t *testing.T) {
		k := &sim.Kernel{}
		c := MustCluster(k, Config{
			Model:         model.ResNet15(),
			Workers:       Homogeneous(model.K80, 2),
			DisableWarmup: true,
			Seed:          31,
		})
		c.Start()
		k.RunUntil(sim.Time(60))
		late, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{})
		if err != nil {
			t.Fatal(err)
		}
		k.RunUntil(sim.Time(80)) // a warm join takes ≈15 s; 100 steps ≈10 s more
		if n := c.workers[late].stepsDone; n == 0 || n > speedWindowSteps {
			t.Fatalf("late worker finished %d steps, want 1..%d", n, speedWindowSteps)
		}
		for _, ws := range c.Result().Workers {
			if ws.Name == late {
				t.Fatalf("worker with %d steps has a stat %+v", ws.Steps, ws)
			}
		}
	})

	t.Run("steady_mean_skips_warmup", func(t *testing.T) {
		// One worker with warm-up on: its steady mean is Table I's step
		// time, not inflated by the warm-up steps' ≈1.75× average.
		cfg := Config{Model: model.ResNet15(), Workers: Homogeneous(model.K80, 1), TargetSteps: 600, Seed: 37}
		res := runCluster(t, cfg)
		if len(res.Workers) != 1 {
			t.Fatalf("one-worker session has %d stats", len(res.Workers))
		}
		want := model.StepTime(model.K80, cfg.Model.GFLOPs)
		if got := res.Workers[0].MeanStepTime; math.Abs(got-want)/want > 0.02 {
			t.Fatalf("steady step time = %.4f s, want ≈%.4f (warm-up discarded)", got, want)
		}

		res = runCluster(t, Config{
			Model:       model.ResNet15(),
			Workers:     Mixed(2, 1, 1),
			TargetSteps: 4000,
			Seed:        41,
		})
		var sum int64
		for _, ws := range res.Workers {
			sum += ws.Steps
		}
		if len(res.Workers) != 4 || sum != res.GlobalSteps {
			t.Fatalf("%d stats summing to %d steps, want 4 summing to %d", len(res.Workers), sum, res.GlobalSteps)
		}
	})
}
