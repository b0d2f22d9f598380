package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// referenceCalibration is the builder the fleet's predictive scheduler
// used before CalibratedPredictor existed, kept verbatim apart from
// package prefixes and returning its results instead of storing them:
// the oracle the shared builder must reproduce bit for bit.
func referenceCalibration() (*SpeedModel, *CheckpointModel, *RevocationEstimator, error) {
	var speedObs []SpeedObservation
	for _, g := range model.AllGPUs() {
		for _, m := range model.Zoo() {
			speedObs = append(speedObs, SpeedObservation{
				GPU: g, GFLOPs: m.GFLOPs, StepSeconds: model.StepTimeModel(g, m),
			})
		}
	}
	speed, err := FitSpeedModel(speedObs, KindSVRRBF)
	if err != nil {
		return nil, nil, nil, err
	}

	rng := stats.NewRng(3)
	var ckptObs []CheckpointObservation
	for _, m := range model.Zoo() {
		for i := 0; i < 5; i++ {
			ckptObs = append(ckptObs, CheckpointObservation{
				DataBytes:  m.CkptDataBytes,
				MetaBytes:  m.CkptMetaBytes,
				IndexBytes: m.CkptIndexBytes,
				Seconds:    rng.LogNormal(train.CheckpointSeconds(m), 0.04),
			})
		}
	}
	ckpt, err := FitCheckpointModel(ckptObs, FeatTotalSize, KindSVRRBF)
	if err != nil {
		return nil, nil, nil, err
	}

	rev := NewRevocationEstimator()
	for _, g := range model.AllGPUs() {
		for _, r := range cloud.AllRegions() {
			if !cloud.Offered(r, g) {
				continue
			}
			k := &sim.Kernel{}
			p := cloud.NewProvider(k, stats.NewRng(int64(g)*11+int64(r)*101))
			for i := 0; i < 300; i++ {
				g := g
				k.At(sim.Time(float64(i%24)*3600), func() {
					p.MustLaunch(cloud.Request{Region: r, GPU: g, Tier: cloud.Transient})
				})
			}
			k.Run()
			var lifetimes []float64
			for _, in := range p.Instances() {
				lifetimes = append(lifetimes, in.LifetimeSeconds(k.Now())/3600)
			}
			if err := rev.SetLifetimes(r.String(), g, lifetimes); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return speed, ckpt, rev, nil
}

// sameBits reports whether two estimates agree bit for bit in every
// field.
func sameBits(a, b Estimate) bool {
	pairs := [][2]float64{
		{a.ClusterSpeed, b.ClusterSpeed},
		{a.ComputeSeconds, b.ComputeSeconds},
		{a.CheckpointSeconds, b.CheckpointSeconds},
		{a.ExpectedRevocations, b.ExpectedRevocations},
		{a.RevocationSeconds, b.RevocationSeconds},
		{a.TotalSeconds, b.TotalSeconds},
		{a.CostUSD, b.CostUSD},
	}
	for _, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// calibratedPlan is a cluster of n identical workers on one corner.
func calibratedPlan(m model.Model, g model.GPU, r cloud.Region, transient bool, n int) Plan {
	workers := make([]Placement, n)
	for i := range workers {
		workers[i] = Placement{GPU: g, Region: r.String(), Transient: transient}
	}
	return Plan{Model: m, Workers: workers, ParameterServers: 1, TargetSteps: 64000, CheckpointInterval: 4000}
}

// TestCalibratedPredictorMatchesReference is the differential test:
// over every offered corner, both tiers, one and four workers and three
// Zoo models, the shared predictor answers bit-identically to the
// reference builder with the Tp and Ts its callers used to fill in.
func TestCalibratedPredictorMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("two full calibrations in -short mode")
	}
	speed, ckpt, rev, err := referenceCalibration()
	if err != nil {
		t.Fatal(err)
	}
	corners := 0
	for _, m := range []model.Model{model.ResNet15(), model.ResNet32(), model.ShakeShakeSmall()} {
		got, err := CalibratedPredictor(m)
		if err != nil {
			t.Fatal(err)
		}
		ref := Predictor{Speed: speed, Checkpoint: ckpt, Revocation: rev,
			ProvisionSeconds: 70, ReplacementSeconds: train.ReplacementSeconds(m, true)}
		if got.ProvisionSeconds != ref.ProvisionSeconds || got.ReplacementSeconds != ref.ReplacementSeconds {
			t.Fatalf("%s: Tp/Ts = %v/%v, want %v/%v", m.Name, got.ProvisionSeconds, got.ReplacementSeconds,
				ref.ProvisionSeconds, ref.ReplacementSeconds)
		}
		for _, g := range model.AllGPUs() {
			for _, r := range cloud.OfferedRegions(g) {
				corners++
				for _, transient := range []bool{true, false} {
					for _, n := range []int{1, 4} {
						plan := calibratedPlan(m, g, r, transient, n)
						want, err := ref.Estimate(plan)
						if err != nil {
							t.Fatal(err)
						}
						est, err := got.Estimate(plan)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(est, want) {
							t.Errorf("%s %d×%v %v transient=%v:\n got  %+v\n want %+v", m.Name, n, g, r, transient, est, want)
						}
					}
				}
			}
		}
	}
	if corners != 3*12 {
		t.Fatalf("visited %d model×corner cells, want 36 (12 offered corners)", corners)
	}
}

// TestCalibratedPredictorConcurrentFirstCall has many goroutines make
// the first call on a fresh calibration at once: exactly one build
// runs, and every caller gets the same models and bit-equal answers.
func TestCalibratedPredictorConcurrentFirstCall(t *testing.T) {
	if testing.Short() {
		t.Skip("full calibration in -short mode")
	}
	const callers = 16
	m := model.ResNet32()
	var (
		c     calibration
		start = make(chan struct{})
		wg    sync.WaitGroup
		preds [callers]Predictor
		errs  [callers]error
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			preds[i], errs[i] = c.predictor(m)
		}()
	}
	close(start)
	wg.Wait()

	shared, err := CalibratedPredictor(m)
	if err != nil {
		t.Fatal(err)
	}
	plan := calibratedPlan(m, model.K80, cloud.USCentral1, true, 4)
	want, err := shared.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if p.Speed != preds[0].Speed || p.Checkpoint != preds[0].Checkpoint || p.Revocation != preds[0].Revocation {
			t.Fatalf("caller %d got models from a second build", i)
		}
		est, err := p.Estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(est, want) {
			t.Fatalf("caller %d: %+v, want %+v", i, est, want)
		}
	}
}

// BenchmarkCalibration builds a fresh calibration per iteration and
// answers one predictor call from it: the speed and checkpoint fits
// and the corner campaigns that pland's first /v1/estimate pays.
func BenchmarkCalibration(b *testing.B) {
	m := model.ResNet32()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var c calibration
		if _, err := c.predictor(m); err != nil {
			b.Fatal(err)
		}
	}
}
