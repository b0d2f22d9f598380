package train

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestWindowedSpeedDropsAfterRevocation is the paper's performance-
// tracker story in miniature: in synchronous mode the global batch is
// fixed, so a mid-run revocation hands the survivors bigger shares and
// the windowed speed visibly drops — and the same samples land in the
// trace timeline as speed events.
func TestWindowedSpeedDropsAfterRevocation(t *testing.T) {
	rec := obs.NewRecorder()
	k := &sim.Kernel{}
	// Slow K80 workers with ample PS shards keep compute (not PS
	// contention) the round bottleneck, so losing a worker must slow
	// the rounds down rather than relieve the parameter servers.
	cfg := Config{
		Model:            model.ResNet32(),
		Workers:          Homogeneous(model.K80, 4),
		ParameterServers: 4,
		TargetSteps:      800,
		DisableWarmup:    true,
		Seed:             71,
		Batch:            &BatchPolicy{GlobalBatch: 4 * model.ReferenceBatch},
		Trace:            rec,
	}
	c := MustCluster(k, cfg)
	var revokedAt float64
	c.WhenStep(400, func() {
		victims := c.LiveWorkers()
		if err := c.KillWorker(victims[len(victims)-1]); err != nil {
			t.Error(err)
		}
		revokedAt = k.Now().Seconds()
	})
	c.Start()
	k.Run()
	res := c.Result()
	if !res.Done {
		t.Fatalf("session did not finish: %d steps", res.GlobalSteps)
	}

	// Windowed speeds strictly before the revocation vs strictly after
	// (skipping the window straddling it).
	var before, after []float64
	for _, s := range res.SpeedSeries {
		switch {
		case s.Time < revokedAt:
			before = append(before, s.Speed)
		case s.Time > revokedAt && s.Step > 500:
			after = append(after, s.Speed)
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("not enough windows around the revocation: %d before, %d after", len(before), len(after))
	}
	meanOf := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	mb, ma := meanOf(before), meanOf(after)
	// Losing 1 of 4 workers under a fixed global batch makes each round
	// ~4/3 slower; demand a clear drop, not just noise.
	if ma >= mb*0.9 {
		t.Fatalf("windowed speed did not drop after revocation: %.3f -> %.3f steps/s", mb, ma)
	}

	// The trace timeline holds the same story: speed samples matching
	// the series, the revocation, and the share rebalances.
	if n := len(rec.EventsOf(EventRevocation)); n != 1 {
		t.Fatalf("trace has %d revocation events, want 1", n)
	}
	if n := len(rec.EventsOf(EventRebalance)); n < 2 { // Start + post-revocation
		t.Fatalf("trace has %d rebalance events, want >= 2", n)
	}
	speeds := rec.EventsOf(EventSpeed)
	if len(speeds) != len(res.SpeedSeries) {
		t.Fatalf("trace has %d speed events, series has %d windows", len(speeds), len(res.SpeedSeries))
	}
	for i, e := range speeds {
		s := res.SpeedSeries[i]
		if e.T != s.Time || e.Step != s.Step || e.Value != s.Speed {
			t.Fatalf("speed event %d diverges from series sample: %+v vs %+v", i, e, s)
		}
	}
}

// TestTraceNeutral pins the core observability contract at the cluster
// level: a traced run's Result is identical to an untraced run's.
func TestTraceNeutral(t *testing.T) {
	run := func(rec *obs.Recorder) Result {
		cfg := syncConfig(4*model.ReferenceBatch, true, Mixed(2, 1, 1))
		cfg.CheckpointInterval = 100
		cfg.Trace = rec
		k := &sim.Kernel{}
		c := MustCluster(k, cfg)
		c.WhenStep(200, func() {
			if err := c.KillWorker(c.LiveWorkers()[0]); err != nil {
				t.Error(err)
			}
		})
		c.Start()
		k.Run()
		return c.Result()
	}
	plain := run(nil)
	rec := obs.NewRecorder()
	traced := run(rec)
	if rec.Len() == 0 {
		t.Fatal("trace recorded nothing")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing perturbed the simulation:\nplain  %+v\ntraced %+v", plain, traced)
	}
}
