package trace

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// StartupSummary aggregates startup samples for one configuration
// (Fig. 6's bars: per-stage means plus total statistics).
type StartupSummary struct {
	GPU    model.GPU
	Region cloud.Region
	Tier   cloud.Tier
	N      int

	MeanProvisioning float64
	MeanStaging      float64
	MeanBooting      float64
	MeanTotal        float64
	StdTotal         float64
	CoVTotal         float64
}

// RunStartupStudy launches n servers for every combination of the
// given GPUs, tiers, and regions on a fresh provider state and
// measures stage durations (Fig. 6's methodology).
func RunStartupStudy(k *sim.Kernel, p *cloud.Provider, gpus []model.GPU, tiers []cloud.Tier, regions []cloud.Region, n int) ([]StartupSummary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: startup study needs positive n")
	}
	type cell struct {
		g model.GPU
		r cloud.Region
		t cloud.Tier
	}
	launched := make(map[cell][]*cloud.Instance)
	for _, g := range gpus {
		for _, r := range regions {
			if !cloud.Offered(r, g) {
				return nil, fmt.Errorf("trace: %v not offered in %v", g, r)
			}
			for _, tier := range tiers {
				for i := 0; i < n; i++ {
					in, err := p.Launch(cloud.Request{Region: r, GPU: g, Tier: tier})
					if err != nil {
						return nil, err
					}
					launched[cell{g, r, tier}] = append(launched[cell{g, r, tier}], in)
				}
			}
		}
	}
	// Startup completes within minutes; run a bounded horizon so the
	// transient servers' 24 h lifecycles don't dominate the study.
	k.RunUntil(k.Now() + sim.Time(600))

	var out []StartupSummary
	for _, g := range gpus {
		for _, r := range regions {
			for _, tier := range tiers {
				ins := launched[cell{g, r, tier}]
				sum := StartupSummary{GPU: g, Region: r, Tier: tier}
				var prov, stag, boot, total stats.Accumulator
				for _, in := range ins {
					b := in.Startup()
					prov.Add(b.Provisioning)
					stag.Add(b.Staging)
					boot.Add(b.Booting)
					total.Add(b.Total())
				}
				sum.N = total.N()
				sum.MeanProvisioning = prov.Mean()
				sum.MeanStaging = stag.Mean()
				sum.MeanBooting = boot.Mean()
				sum.MeanTotal = total.Mean()
				sum.StdTotal = total.Std()
				sum.CoVTotal = total.CoV()
				out = append(out, sum)
			}
		}
	}
	return out, nil
}

// AcquisitionTiming distinguishes Fig. 7's two request regimes.
type AcquisitionTiming int

const (
	// Immediate requests follow a revocation within seconds.
	Immediate AcquisitionTiming = iota + 1
	// Delayed requests wait at least an hour after a revocation.
	Delayed
)

// String names the timing.
func (a AcquisitionTiming) String() string {
	if a == Immediate {
		return "immediate"
	}
	return "delayed"
}

// PostRevocationResult summarizes startup behavior for one requested
// GPU type under one timing regime (Fig. 7's bars).
type PostRevocationResult struct {
	Requested model.GPU
	Timing    AcquisitionTiming
	N         int
	MeanTotal float64
	CoVTotal  float64
}

// RunPostRevocationStudy reproduces Fig. 7's methodology: run bait K80
// transient servers in a region offering all GPU types and, after each
// bait revocation, request one server of each GPU type — immediately,
// or after a delay long enough for the capacity pool to settle — and
// record its startup time.
//
// Trials are strictly sequential (one bait at a time, probes
// terminated as soon as they boot) so that the delayed regime is not
// polluted by churn from unrelated revocations, matching the paper's
// controlled measurement.
func RunPostRevocationStudy(k *sim.Kernel, p *cloud.Provider, timing AcquisitionTiming, trials int) ([]PostRevocationResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("trace: post-revocation study needs positive trials")
	}
	const region = cloud.USCentral1 // offers all three GPU types
	probesByGPU := make(map[model.GPU][]*cloud.Instance)
	remaining := trials

	var launchBait func()
	probe := func() {
		booted := 0
		for _, g := range model.AllGPUs() {
			in, err := p.Launch(cloud.Request{
				Region: region,
				GPU:    g,
				Tier:   cloud.Transient,
				OnRunning: func(in *cloud.Instance) {
					// Startup is measured; stop the probe so its own
					// later revocation cannot churn the next trial.
					p.Terminate(in)
					booted++
					if booted == len(model.AllGPUs()) && remaining > 0 {
						// Let the pool settle before the next trial's
						// bait so trials stay independent.
						k.After(2*3600, launchBait)
					}
				},
			})
			if err != nil {
				panic(fmt.Sprintf("trace: probe launch: %v", err))
			}
			probesByGPU[g] = append(probesByGPU[g], in)
		}
	}
	launchBait = func() {
		_, err := p.Launch(cloud.Request{
			Region: region,
			GPU:    model.K80,
			Tier:   cloud.Transient,
			OnRevoked: func(*cloud.Instance) {
				remaining--
				if timing == Delayed {
					k.After(2*3600, probe)
				} else {
					k.After(0.001, probe)
				}
			},
			OnRunning: func(in *cloud.Instance) {
				// Baits that would survive to the 24 h cap stall the
				// study; give each bait 12 h to die, then replace it.
				k.After(12*3600, func() {
					if !in.State().Done() {
						p.Terminate(in)
						launchBait()
					}
				})
			},
		})
		if err != nil {
			panic(fmt.Sprintf("trace: bait launch: %v", err))
		}
	}
	launchBait()
	k.Run()

	var out []PostRevocationResult
	for _, g := range model.AllGPUs() {
		var total stats.Accumulator
		for _, in := range probesByGPU[g] {
			if b := in.Startup(); b.Total() > 0 {
				total.Add(b.Total())
			}
		}
		out = append(out, PostRevocationResult{
			Requested: g,
			Timing:    timing,
			N:         total.N(),
			MeanTotal: total.Mean(),
			CoVTotal:  total.CoV(),
		})
	}
	return out, nil
}
