package train

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWorkerSizeIsCacheLineMultiple pins Worker's size to a multiple of
// 64 bytes, for the reason sim's TestKernelSizeIsCacheLineMultiple
// gives: at any other size a worker shares a cache line with the next
// object of its size class, often a worker of the campaign unit running
// on the other CPU, and every step writes a line the other core keeps
// reading. Unpadded at 240 bytes, revmodels at -parallel 2 ran 13%
// slower than at 256 (median over 12 seeds on a 2-vCPU Xeon).
func TestWorkerSizeIsCacheLineMultiple(t *testing.T) {
	if n := unsafe.Sizeof(Worker{}); n%64 != 0 {
		t.Fatalf("unsafe.Sizeof(Worker{}) = %d bytes, want a multiple of 64", n)
	}
}

// runCluster builds, starts, and drains a session, returning its
// result.
func runCluster(t *testing.T, cfg Config) Result {
	t.Helper()
	k := &sim.Kernel{}
	c, err := NewCluster(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	k.Run()
	return c.Result()
}

func TestBaselineSpeedMatchesTableI(t *testing.T) {
	// Table I: single worker + single parameter server, steps/second.
	want := map[model.GPU][]float64{
		model.K80:  {9.46, 4.56, 2.58, 0.70},
		model.P100: {21.16, 12.19, 6.99, 1.98},
		model.V100: {27.38, 15.61, 8.80, 2.18},
	}
	models := model.CanonicalModels()
	for g, speeds := range want {
		for i, wantSpeed := range speeds {
			cfg := Config{
				Model:       models[i],
				Workers:     Homogeneous(g, 1),
				TargetSteps: 1200,
				Seed:        int64(7*i) + int64(g),
			}
			res := runCluster(t, cfg)
			if !res.Done {
				t.Fatalf("%v %s did not finish", g, models[i].Name)
			}
			if math.Abs(res.SteadySpeed-wantSpeed)/wantSpeed > 0.03 {
				t.Errorf("%v %s steady speed = %.2f steps/s, want ≈%.2f",
					g, models[i].Name, res.SteadySpeed, wantSpeed)
			}
		}
	}
}

func TestSpeedStableAfterWarmup(t *testing.T) {
	// Fig. 2: training speed is stable after warm-up with CoV ≤ 0.02,
	// and the warm-up window is visibly slower.
	cfg := Config{
		Model:       model.ResNet15(),
		Workers:     Homogeneous(model.K80, 1),
		TargetSteps: 4000,
		Seed:        1,
	}
	res := runCluster(t, cfg)
	if res.SpeedCoV > 0.03 {
		t.Errorf("steady speed CoV = %.4f, want ≤ 0.03", res.SpeedCoV)
	}
	series := res.SpeedSeries
	if len(series) != 40 {
		t.Fatalf("got %d windows, want 40", len(series))
	}
	if series[0].Speed >= res.SteadySpeed*0.8 {
		t.Errorf("warm-up window speed %.2f not visibly below steady %.2f",
			series[0].Speed, res.SteadySpeed)
	}
}

func TestPerWorkerStepTimeTableIII(t *testing.T) {
	// Table III's shape: per-worker ResNet-32 step time is flat for
	// K80 clusters up to 8 workers, inflates ≈1.6–2× for 8 P100/V100
	// workers (parameter-server saturation), and is mildly inflated
	// at 4 V100 workers (saturation onset).
	resnet32 := model.ResNet32()
	perWorker := func(g model.GPU, n int) float64 {
		cfg := Config{
			Model:         resnet32,
			Workers:       Homogeneous(g, n),
			TargetSteps:   int64(n * 700),
			DisableWarmup: false,
			Seed:          int64(n*10) + int64(g),
		}
		res := runCluster(t, cfg)
		ws, err := res.WorkerStatByGPU(g)
		if err != nil {
			t.Fatal(err)
		}
		return ws.MeanStepTime
	}

	k80Base := perWorker(model.K80, 1)
	if infl := perWorker(model.K80, 8) / k80Base; infl > 1.10 {
		t.Errorf("8-worker K80 step-time inflation = %.3f, want ≈1 (no bottleneck)", infl)
	}
	p100Base := perWorker(model.P100, 1)
	if infl := perWorker(model.P100, 8) / p100Base; infl < 1.4 {
		t.Errorf("8-worker P100 inflation = %.3f, want ≥1.4 (saturated)", infl)
	}
	v100Base := perWorker(model.V100, 1)
	infl4 := perWorker(model.V100, 4) / v100Base
	if infl4 < 1.0 || infl4 > 1.35 {
		t.Errorf("4-worker V100 inflation = %.3f, want mild (1.0–1.35)", infl4)
	}
	if infl := perWorker(model.V100, 8) / v100Base; infl < 1.7 {
		t.Errorf("8-worker V100 inflation = %.3f, want ≥1.7", infl)
	}
}

func TestHeterogeneousClusterDoesNotSlowWorkers(t *testing.T) {
	// Table III's (2,1,1) column: mixing GPU types leaves each
	// worker's step time at its baseline.
	resnet32 := model.ResNet32()
	cfg := Config{
		Model:       resnet32,
		Workers:     Mixed(2, 1, 1),
		TargetSteps: 4000,
		Seed:        42,
	}
	res := runCluster(t, cfg)
	for _, g := range model.AllGPUs() {
		ws, err := res.WorkerStatByGPU(g)
		if err != nil {
			t.Fatal(err)
		}
		baseline := model.StepTimeModel(g, resnet32)
		if math.Abs(ws.MeanStepTime-baseline)/baseline > 0.08 {
			t.Errorf("%v step time in mixed cluster = %.4f, baseline %.4f", g, ws.MeanStepTime, baseline)
		}
	}
}

func TestClusterSpeedIsSumUntilBottleneck(t *testing.T) {
	// §III-D / §VI-A: cluster speed ≈ Σ worker speeds below the
	// parameter-server bottleneck.
	cfg := Config{
		Model:       model.ResNet32(),
		Workers:     Mixed(2, 1, 1),
		TargetSteps: 5000,
		Seed:        3,
	}
	res := runCluster(t, cfg)
	want := 2*4.56 + 12.19 + 15.61
	// Shard contention at ρ≈0.6 shaves a few percent; the paper's own
	// tables vary by about that much between measurement methods
	// (Table I vs. Table III baselines).
	if math.Abs(res.SteadySpeed-want)/want > 0.10 {
		t.Errorf("heterogeneous cluster speed = %.2f, want ≈%.2f (sum of workers)", res.SteadySpeed, want)
	}
	if res.SteadySpeed > want*1.02 {
		t.Errorf("cluster speed %.2f exceeds the sum of worker speeds %.2f", res.SteadySpeed, want)
	}
}

func TestP100ClusterPlateau(t *testing.T) {
	// Fig. 4: ResNet-32 on P100 plateaus past four workers at the
	// single-PS capacity (≈60 updates/s in our calibration).
	speed := func(n int) float64 {
		cfg := Config{
			Model:       model.ResNet32(),
			Workers:     Homogeneous(model.P100, n),
			TargetSteps: int64(3000 * n),
			Seed:        int64(n),
		}
		return runCluster(t, cfg).SteadySpeed
	}
	s2, s4, s8 := speed(2), speed(4), speed(8)
	if math.Abs(s2-2*12.19)/(2*12.19) > 0.05 {
		t.Errorf("2-worker speed %.1f, want ≈%.1f", s2, 2*12.19)
	}
	if s8 > 66 {
		t.Errorf("8-worker speed %.1f exceeds single-PS capacity ≈60", s8)
	}
	if s8 < s4 {
		t.Errorf("speed decreased with more workers: s4=%.1f s8=%.1f", s4, s8)
	}
	if (s8-s4)/s4 > 0.35 {
		t.Errorf("s4→s8 speedup %.2f too large for a plateau", (s8-s4)/s4)
	}
}

func TestSecondParameterServerLiftsPlateau(t *testing.T) {
	// Fig. 12b: adding a second parameter server lifts the 8-worker
	// ResNet-32 plateau by a large fraction (paper: up to 70.6%).
	speed := func(ps int) float64 {
		cfg := Config{
			Model:            model.ResNet32(),
			Workers:          Homogeneous(model.P100, 8),
			ParameterServers: ps,
			TargetSteps:      24000,
			Seed:             5,
		}
		return runCluster(t, cfg).SteadySpeed
	}
	s1, s2 := speed(1), speed(2)
	gain := (s2 - s1) / s1
	if gain < 0.35 {
		t.Errorf("2-PS speedup = %.2f, want ≥0.35 (paper reports up to 0.706)", gain)
	}
}

func TestCheckpointOverheadIsAdditive(t *testing.T) {
	// §IV-B: 100 steps with checkpointing take one checkpoint time
	// longer than without (training and checkpointing are sequential).
	base := Config{
		Model:         model.ResNet32(),
		Workers:       Homogeneous(model.K80, 1),
		TargetSteps:   1000,
		DisableWarmup: true,
		Seed:          9,
	}
	withoutCkpt := runCluster(t, base)

	withCfg := base
	withCfg.CheckpointInterval = 100
	withCkpt := runCluster(t, withCfg)

	if withCkpt.CheckpointCount < 9 {
		t.Fatalf("checkpoint count = %d, want ≥9 for 1000 steps at interval 100", withCkpt.CheckpointCount)
	}
	extra := withCkpt.TotalSeconds - withoutCkpt.TotalSeconds
	wantExtra := withCkpt.CheckpointSeconds
	if math.Abs(extra-wantExtra)/wantExtra > 0.12 {
		t.Errorf("checkpoint overhead: total time grew %.2f s, checkpoints took %.2f s — should match (additivity)",
			extra, wantExtra)
	}
	perCkpt := withCkpt.CheckpointSeconds / float64(withCkpt.CheckpointCount)
	if math.Abs(perCkpt-3.84) > 0.5 {
		t.Errorf("ResNet-32 checkpoint = %.2f s, want ≈3.84 (§IV-B)", perCkpt)
	}
}

func TestCheckpointSecondsCalibration(t *testing.T) {
	if got := CheckpointSeconds(model.ResNet32()); math.Abs(got-3.84) > 0.25 {
		t.Errorf("ResNet-32 checkpoint mean = %.2f s, want ≈3.84", got)
	}
	if got := CheckpointSeconds(model.ShakeShakeBig()); got < 7 || got > 8.6 {
		t.Errorf("ShakeShakeBig checkpoint mean = %.2f s, want ≈8 (Fig. 5 maximum)", got)
	}
}

func TestReplacementOverheadCalibration(t *testing.T) {
	// Fig. 10: ResNet-15 ≈14.8 s warm, ≈75.6 s cold; Shake-Shake Big
	// ≈15 s longer (graph setup).
	r15, ssb := model.ResNet15(), model.ShakeShakeBig()
	if got := ReplacementSeconds(r15, false); math.Abs(got-14.8) > 1 {
		t.Errorf("ResNet-15 warm replacement = %.1f s, want ≈14.8", got)
	}
	if got := ReplacementSeconds(r15, true); math.Abs(got-75.6) > 2 {
		t.Errorf("ResNet-15 cold replacement = %.1f s, want ≈75.6", got)
	}
	delta := ReplacementSeconds(ssb, false) - ReplacementSeconds(r15, false)
	if math.Abs(delta-15) > 3 {
		t.Errorf("ShakeShakeBig−ResNet-15 warm delta = %.1f s, want ≈15", delta)
	}
}

func TestChiefRevocationHandoff(t *testing.T) {
	// CM-DARE: when the chief is revoked, another worker takes over
	// checkpoint duty and checkpoints keep flowing.
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:              model.ResNet15(),
		Workers:            Homogeneous(model.K80, 2),
		TargetSteps:        4000,
		CheckpointInterval: 500,
		DisableWarmup:      true,
		Seed:               11,
		Trace:              rec,
	})
	chief := c.Chief()
	c.WhenStep(1200, func() {
		if err := c.KillWorker(chief); err != nil {
			t.Errorf("KillWorker: %v", err)
		}
	})
	c.Start()
	k.Run()
	res := c.Result()
	if !res.Done {
		t.Fatal("session did not finish after chief revocation")
	}
	handoffs := rec.EventsOf(EventChiefHandoff)
	if len(handoffs) != 1 {
		t.Fatalf("chief handoffs = %d, want 1", len(handoffs))
	}
	newChief := handoffs[0].Worker
	if newChief == chief {
		t.Fatal("handoff chose the dead chief")
	}
	// At least one checkpoint after the handoff, written by the new
	// chief.
	var postHandoff int
	for _, e := range rec.EventsOf(EventCheckpoint) {
		if e.T > handoffs[0].T {
			postHandoff++
			if e.Worker != newChief {
				t.Errorf("post-handoff checkpoint written by %s, want %s", e.Worker, newChief)
			}
		}
	}
	if postHandoff == 0 {
		t.Error("no checkpoints after chief handoff")
	}
}

func TestRevocationHalvesTwoWorkerSpeed(t *testing.T) {
	// Killing one of two identical workers should halve throughput.
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:         model.ResNet15(),
		Workers:       Homogeneous(model.K80, 2),
		DisableWarmup: true,
		Seed:          13,
		Trace:         rec,
	})
	c.WhenStep(4000, func() {
		if err := c.KillWorker(c.LiveWorkers()[1]); err != nil {
			t.Errorf("KillWorker: %v", err)
		}
	})
	c.Start()
	k.RunUntil(sim.Time(500))
	series := c.Result().SpeedSeries
	revTime := rec.EventsOf(EventRevocation)[0].T
	var before, after []float64
	for _, s := range series {
		switch {
		case s.Time < revTime-5:
			before = append(before, s.Speed)
		case s.Time > revTime+5:
			after = append(after, s.Speed)
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatal("not enough speed samples around the revocation")
	}
	ratio := mean(after) / mean(before)
	if math.Abs(ratio-0.5) > 0.06 {
		t.Errorf("post-revocation speed ratio = %.3f, want ≈0.5", ratio)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestColdReplacementJoinsAfterOverhead(t *testing.T) {
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:         model.ResNet15(),
		Workers:       Homogeneous(model.K80, 2),
		DisableWarmup: true,
		Seed:          17,
		Trace:         rec,
	})
	var killedAt, joinRequestedAt float64
	c.WhenStep(2000, func() {
		victim := c.LiveWorkers()[1]
		if err := c.KillWorker(victim); err != nil {
			t.Errorf("KillWorker: %v", err)
		}
		killedAt = k.Now().Seconds()
		joinRequestedAt = killedAt
		if _, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{Cold: true}); err != nil {
			t.Errorf("AddWorker: %v", err)
		}
	})
	c.Start()
	k.RunUntil(sim.Time(800))
	joins := rec.EventsOf(EventJoin)
	if len(joins) != 1 {
		t.Fatalf("joins = %d, want 1", len(joins))
	}
	overhead := joins[0].T - joinRequestedAt
	// One lognormal draw at CoV 0.05: allow ±3σ.
	if math.Abs(overhead-75.6) > 12 {
		t.Errorf("cold join overhead = %.1f s, want ≈75.6 (Fig. 10)", overhead)
	}
	if len(c.LiveWorkers()) != 2 {
		t.Fatalf("live workers = %d, want 2", len(c.LiveWorkers()))
	}
}

func TestReuseChiefIPRollsBack(t *testing.T) {
	// §V-E: an unmodified-TensorFlow replacement that reuses the
	// chief's address restarts the session from the last checkpoint.
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:              model.ResNet15(),
		Workers:            Homogeneous(model.K80, 2),
		CheckpointInterval: 1000,
		DisableWarmup:      true,
		Seed:               19,
		Trace:              rec,
	})
	c.SetChiefHandoff(false)
	chief := c.Chief()
	c.WhenStep(1600, func() {
		if err := c.KillWorker(chief); err != nil {
			t.Errorf("KillWorker: %v", err)
		}
		if _, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{ReuseChiefIP: true}); err != nil {
			t.Errorf("AddWorker: %v", err)
		}
	})
	c.Start()
	k.RunUntil(sim.Time(700))
	rollbacks := rec.EventsOf(EventRollback)
	if len(rollbacks) != 1 {
		t.Fatalf("rollbacks = %d, want 1", len(rollbacks))
	}
	if rollbacks[0].Step < 1600 {
		t.Errorf("rollback recorded at step %d, want ≥1600", rollbacks[0].Step)
	}
	ckptStep := c.LastCheckpointStep()
	if ckptStep < 1000 {
		t.Fatalf("no checkpoint before rollback (last = %d)", ckptStep)
	}
	// After the rollback the new chief owns checkpointing.
	if c.Chief() == chief || c.Chief() == "" {
		t.Errorf("chief after IP reuse = %q", c.Chief())
	}
}

func TestWithoutHandoffNoCheckpointsAfterChiefDeath(t *testing.T) {
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:              model.ResNet15(),
		Workers:            Homogeneous(model.K80, 2),
		CheckpointInterval: 500,
		DisableWarmup:      true,
		Seed:               23,
		Trace:              rec,
	})
	c.SetChiefHandoff(false)
	chief := c.Chief()
	c.WhenStep(700, func() {
		if err := c.KillWorker(chief); err != nil {
			t.Errorf("KillWorker: %v", err)
		}
	})
	c.Start()
	k.RunUntil(sim.Time(600))
	revTime := rec.EventsOf(EventRevocation)[0].T
	for _, e := range rec.EventsOf(EventCheckpoint) {
		if e.T > revTime {
			t.Fatalf("checkpoint at %.1f s after chief death without handoff", e.T)
		}
	}
	if c.Chief() != "" {
		t.Fatalf("chief = %q, want none", c.Chief())
	}
}

func TestWhenStepFiresOnce(t *testing.T) {
	k := &sim.Kernel{}
	c := MustCluster(k, Config{
		Model:         model.ResNet15(),
		Workers:       Homogeneous(model.V100, 1),
		TargetSteps:   500,
		DisableWarmup: true,
		Seed:          29,
	})
	fired := 0
	c.WhenStep(100, func() { fired++ })
	c.Start()
	k.Run()
	if fired != 1 {
		t.Fatalf("WhenStep fired %d times, want 1", fired)
	}
}

func TestWhenStepInPastPanics(t *testing.T) {
	k := &sim.Kernel{}
	c := MustCluster(k, Config{
		Model:       model.ResNet15(),
		Workers:     Homogeneous(model.V100, 1),
		TargetSteps: 10,
		Seed:        31,
	})
	c.Start()
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("WhenStep in the past should panic")
		}
	}()
	c.WhenStep(5, func() {})
}

func TestConfigValidation(t *testing.T) {
	k := &sim.Kernel{}
	cases := []Config{
		{}, // no model
		{Model: model.ResNet15(), Workers: []WorkerSpec{{GPU: model.GPU(99)}}}, // bad GPU
		{Model: model.ResNet15(), Workers: Homogeneous(model.K80, 1), TargetSteps: -1},
		{Model: model.ResNet15(), Workers: Homogeneous(model.K80, 1), ParameterServers: -2},
	}
	for i, cfg := range cases {
		if _, err := NewCluster(k, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Model:              model.ResNet32(),
		Workers:            Mixed(1, 1, 0),
		TargetSteps:        2000,
		CheckpointInterval: 400,
		Seed:               37,
	}
	a := runCluster(t, cfg)
	b := runCluster(t, cfg)
	if a.TotalSeconds != b.TotalSeconds || a.CheckpointSeconds != b.CheckpointSeconds {
		t.Fatalf("same seed produced different runs: %.6f vs %.6f", a.TotalSeconds, b.TotalSeconds)
	}
}

func TestKillWorkerErrors(t *testing.T) {
	k := &sim.Kernel{}
	c := MustCluster(k, Config{
		Model:   model.ResNet15(),
		Workers: Homogeneous(model.K80, 1),
		Seed:    41,
	})
	if err := c.KillWorker("nope"); err == nil {
		t.Fatal("killing unknown worker should error")
	}
	name := c.LiveWorkers()[0]
	if err := c.KillWorker(name); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(name); err == nil {
		t.Fatal("double kill should error")
	}
}
