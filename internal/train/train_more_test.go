package train

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestCheckpointEventsMonotone(t *testing.T) {
	rec := obs.NewRecorder()
	runCluster(t, Config{
		Model:              model.ResNet15(),
		Workers:            Homogeneous(model.V100, 2),
		TargetSteps:        8000,
		CheckpointInterval: 1000,
		DisableWarmup:      true,
		Seed:               51,
		Trace:              rec,
	})
	ckpts := rec.EventsOf(EventCheckpoint)
	if len(ckpts) < 6 {
		t.Fatalf("checkpoints = %d, want ≥6", len(ckpts))
	}
	for i := 1; i < len(ckpts); i++ {
		if ckpts[i].T <= ckpts[i-1].T {
			t.Fatal("checkpoint times not strictly increasing")
		}
		// Events record the global step at checkpoint *completion*;
		// the second worker keeps stepping during the write, so gaps
		// hover around the interval rather than sitting exactly on it.
		if gap := ckpts[i].Step - ckpts[i-1].Step; gap < 900 {
			t.Fatalf("checkpoints %d steps apart, want ≈ interval (1000)", gap)
		}
	}
}

func TestShakeShakeBigScalesOnV100(t *testing.T) {
	// The paper's "separate experiment" (§III-D): after switching from
	// P100 to V100, Shake-Shake Big shows a positive speed–cluster-size
	// correlation.
	speed := func(n int) float64 {
		res := runCluster(t, Config{
			Model:         model.ShakeShakeBig(),
			Workers:       Homogeneous(model.V100, n),
			TargetSteps:   int64(250 * n),
			DisableWarmup: true,
			Seed:          int64(53 + n),
		})
		return res.SteadySpeed
	}
	s1, s4 := speed(1), speed(4)
	if s4 < 3*s1 {
		t.Errorf("V100 ShakeShakeBig 1→4 workers: %.2f → %.2f, want near-linear scaling", s1, s4)
	}
}

func TestPSMaxUtilization(t *testing.T) {
	k := &sim.Kernel{}
	c := MustCluster(k, Config{
		Model:         model.ResNet32(),
		Workers:       Homogeneous(model.P100, 8),
		TargetSteps:   8000,
		DisableWarmup: true,
		Seed:          57,
	})
	c.Start()
	k.Run()
	if u := c.PSMaxUtilization(); u < 0.9 || u > 1.01 {
		t.Errorf("saturated PS utilization = %.3f, want ≈1", u)
	}

	k2 := &sim.Kernel{}
	c2 := MustCluster(k2, Config{
		Model:         model.ResNet32(),
		Workers:       Homogeneous(model.K80, 1),
		TargetSteps:   2000,
		DisableWarmup: true,
		Seed:          59,
	})
	c2.Start()
	k2.Run()
	if u := c2.PSMaxUtilization(); u > 0.2 {
		t.Errorf("single-K80 PS utilization = %.3f, want small", u)
	}
}

func TestZeroParameterServers(t *testing.T) {
	// Degenerate local-training configuration: supported, no PS time.
	k := &sim.Kernel{}
	c, err := NewCluster(k, Config{
		Model:            model.ResNet15(),
		Workers:          Homogeneous(model.V100, 1),
		ParameterServers: -1, // validated away
		TargetSteps:      10,
		Seed:             61,
	})
	if err == nil {
		t.Fatal("negative PS count should error")
		_ = c
	}
}

func TestWarmupToggle(t *testing.T) {
	run := func(disable bool) float64 {
		res := runCluster(t, Config{
			Model:         model.ResNet15(),
			Workers:       Homogeneous(model.K80, 1),
			TargetSteps:   300,
			DisableWarmup: disable,
			Seed:          63,
		})
		return res.TotalSeconds
	}
	with, without := run(false), run(true)
	if with <= without {
		t.Errorf("warm-up run (%.1f s) should be slower than warm-up-free (%.1f s)", with, without)
	}
	// The warm-up surcharge is roughly (factor+1)/2 over 100 steps.
	extra := with - without
	expected := model.StepTime(model.K80, model.ResNet15().GFLOPs) * 100 * (model.WarmupFactor - 1) / 2
	if math.Abs(extra-expected)/expected > 0.35 {
		t.Errorf("warm-up surcharge %.1f s, expected ≈%.1f", extra, expected)
	}
}

func TestAddWorkerValidation(t *testing.T) {
	k := &sim.Kernel{}
	c := MustCluster(k, Config{
		Model:   model.ResNet15(),
		Workers: Homogeneous(model.K80, 1),
		Seed:    67,
	})
	if _, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{}); err == nil {
		t.Fatal("AddWorker before Start should error")
	}
	c.Start()
	if _, err := c.AddWorker(WorkerSpec{GPU: model.GPU(99)}, JoinMode{}); err == nil {
		t.Fatal("AddWorker with invalid GPU should error")
	}
}

// TestEventKindStrings pins each event kind's wire value: the kinds
// are the trace's NDJSON "kind" field, and trace_fig2.golden only
// covers speed.
func TestEventKindStrings(t *testing.T) {
	for _, c := range []struct{ kind, want string }{
		{EventCheckpoint, "checkpoint"},
		{EventRevocation, "revocation"},
		{EventJoin, "join"},
		{EventRollback, "rollback"},
		{EventChiefHandoff, "chief-handoff"},
		{EventShrink, "shrink"},
		{EventRebalance, "rebalance"},
		{EventSpeed, "speed"},
	} {
		if c.kind != c.want {
			t.Errorf("event kind %q, want %q", c.kind, c.want)
		}
	}
}

// Property: for any homogeneous cluster below saturation, steady
// cluster speed grows monotonically (within noise) with worker count.
func TestQuickSpeedMonotoneInWorkers(t *testing.T) {
	f := func(seedRaw int64) bool {
		seed := seedRaw % 1000
		prev := 0.0
		for _, n := range []int{1, 2, 4} {
			res := runCluster(t, Config{
				Model:         model.ResNet32(),
				Workers:       Homogeneous(model.K80, n), // K80 never saturates ≤ 8
				TargetSteps:   int64(600 * n),
				DisableWarmup: true,
				Seed:          seed,
			})
			if res.SteadySpeed < prev*0.98 {
				return false
			}
			prev = res.SteadySpeed
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// Property: total session time always covers steps/speed — the
// simulator cannot finish faster than its own steady throughput.
func TestQuickTotalTimeLowerBound(t *testing.T) {
	f := func(seedRaw int64) bool {
		seed := seedRaw % 997
		res := runCluster(t, Config{
			Model:         model.ResNet15(),
			Workers:       Homogeneous(model.P100, 2),
			TargetSteps:   2000,
			DisableWarmup: true,
			Seed:          seed,
		})
		if !res.Done {
			return false
		}
		minTime := float64(res.GlobalSteps) / (res.SteadySpeed * 1.05)
		return res.TotalSeconds >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRevokedWhileBootingNeverJoins pins the other half of
// join-time liveness: a worker retired during its replacement overhead
// never joins. It records no join and cannot take checkpoint duty from
// a session left without a chief, so the next replacement to join
// becomes chief and checkpoints resume.
func TestWorkerRevokedWhileBootingNeverJoins(t *testing.T) {
	k := &sim.Kernel{}
	rec := obs.NewRecorder()
	c := MustCluster(k, Config{
		Model:              model.ResNet32(),
		Workers:            Homogeneous(model.K80, 2),
		TargetSteps:        100000,
		CheckpointInterval: 100,
		Seed:               5,
		Trace:              rec,
	})
	c.SetChiefHandoff(false) // a dead chief's duty waits for a join
	c.Start()
	k.RunUntil(5)
	booting, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(booting); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(c.Chief()); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(k.Now() + 600) // well past the cold overhead
	if joins := rec.EventsOf(EventJoin); len(joins) != 0 {
		t.Fatalf("%s joined after its revocation", joins[0].Worker)
	}
	if c.Chief() != "" {
		t.Fatalf("chief = %q, want none until a replacement joins", c.Chief())
	}
	replacement, err := c.AddWorker(WorkerSpec{GPU: model.K80}, JoinMode{Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Result().CheckpointCount
	k.RunUntil(k.Now() + 600)
	if c.Chief() != replacement {
		t.Fatalf("chief = %q, want the replacement %s", c.Chief(), replacement)
	}
	if c.Result().CheckpointCount == before {
		t.Fatal("no checkpoint after the replacement joined")
	}
}
