package core

import (
	"sync"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// ProvisionPriorSeconds is Tp before any transient startup has been
// observed: the §V-B running average the calibrated predictor uses,
// and the startup prior a fleet scheduler starts from.
const ProvisionPriorSeconds = 70.0

// calibration is the Eq. 4/5 model set fit from the calibrated curves:
// the Zoo speed SVR, the checkpoint SVR, and a revocation CDF for every
// (region, GPU) corner the default catalog offers. Built once, then
// read-only, so concurrent callers share it without locking.
type calibration struct {
	once  sync.Once
	err   error
	speed *SpeedModel
	ckpt  *CheckpointModel
	rev   *RevocationEstimator
}

// calibrated is the process-wide calibration behind CalibratedPredictor.
var calibrated calibration

// CalibratedPredictor returns the Eq. 4/5 predictor for training m,
// built from the calibrated curves rather than a measurement campaign
// (cmd/repro -exp endtoend runs the measured pipeline). The first call
// fits the models; every later call reuses them, so all callers in a
// process answer from the same fit. Tp is ProvisionPriorSeconds and Ts
// is m's replacement overhead.
func CalibratedPredictor(m model.Model) (Predictor, error) {
	return calibrated.predictor(m)
}

func (c *calibration) predictor(m model.Model) (Predictor, error) {
	c.once.Do(func() { c.speed, c.ckpt, c.rev, c.err = fitCalibration() })
	if c.err != nil {
		return Predictor{}, c.err
	}
	return Predictor{
		Speed:              c.speed,
		Checkpoint:         c.ckpt,
		Revocation:         c.rev,
		ProvisionSeconds:   ProvisionPriorSeconds,
		ReplacementSeconds: train.ReplacementSeconds(m, true),
	}, nil
}

// fitCalibration fits the speed model on every (GPU, Zoo model) step
// time, the checkpoint model on five noisy writes per Zoo model, and
// runs one lifetime campaign per offered corner. Every corner is built
// up front: the twelve campaigns together cost a few milliseconds next
// to the fits' best part of a second.
func fitCalibration() (*SpeedModel, *CheckpointModel, *RevocationEstimator, error) {
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
		for _, r := range cloud.OfferedRegions(g) {
			if err := rev.SetLifetimes(r.String(), g, cornerLifetimes(r, g)); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return speed, ckpt, rev, nil
}

// cornerLifetimes runs one corner's lifetime campaign: 300 transient
// launches staggered across the day, so the Fig. 9 time-of-day hazard
// is sampled evenly, read back in hours. The seed is a function of the
// corner alone, so every process answers identically.
func cornerLifetimes(r cloud.Region, g model.GPU) []float64 {
	k := &sim.Kernel{}
	p := cloud.NewProvider(k, stats.NewRng(int64(g)*11+int64(r)*101))
	for i := 0; i < 300; i++ {
		k.At(sim.Time(float64(i%24)*3600), func() {
			p.MustLaunch(cloud.Request{Region: r, GPU: g, Tier: cloud.Transient})
		})
	}
	k.Run()
	lifetimes := make([]float64, 0, 300)
	for _, in := range p.Instances() {
		lifetimes = append(lifetimes, in.LifetimeSeconds(k.Now())/3600)
	}
	return lifetimes
}
