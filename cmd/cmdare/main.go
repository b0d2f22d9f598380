// Command cmdare runs one managed transient training session on the
// simulated cloud: it acquires parameter servers and transient GPU
// workers, trains the chosen model to a target step count while
// absorbing revocations per the replacement policy, and reports
// training time, checkpoints, revocations, and cost — alongside the
// CM-DARE Eq. 4/5 prediction for the same plan.
//
// Example:
//
//	cmdare -model ResNet-32 -gpu K80 -workers 4 -region us-central1 \
//	       -steps 64000 -ckpt-interval 4000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/manager"
	"repro/internal/model"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		modelName = flag.String("model", "ResNet-32", "zoo model to train")
		gpuName   = flag.String("gpu", "K80", "GPU type: K80, P100, or V100")
		workers   = flag.Int("workers", 2, "number of transient GPU workers")
		psCount   = flag.Int("ps", 1, "number of parameter servers")
		regionStr = flag.String("region", "us-central1", "cloud region")
		steps     = flag.Int64("steps", 64000, "training steps (Nw)")
		ckptEvery = flag.Int64("ckpt-interval", 4000, "checkpoint interval in steps (Ic)")
		policy    = flag.String("replace", "immediate", "replacement policy: immediate, delayed, none")
		delay     = flag.Float64("replace-delay", 3600, "delay in seconds for -replace=delayed")
		seed      = flag.Int64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for the measurement campaign")
	)
	flag.Parse()

	m, err := model.ByName(*modelName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmdare: %v\n", err)
		return 2
	}
	gpu, err := model.ParseGPU(*gpuName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmdare: %v\n", err)
		return 2
	}
	region, err := cloud.ParseRegion(*regionStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmdare: %v\n", err)
		return 2
	}
	var repl manager.ReplacementPolicy
	switch *policy {
	case "immediate":
		repl = manager.ReplaceImmediate
	case "delayed":
		repl = manager.ReplaceDelayed
	case "none":
		repl = manager.ReplaceNone
	default:
		fmt.Fprintf(os.Stderr, "cmdare: unknown policy %q\n", *policy)
		return 2
	}

	if *psCount == 0 {
		// The manager runs at least one parameter server; the estimate
		// must price the cluster the session actually gets.
		*psCount = 1
	}

	fmt.Printf("training %s on %d × transient %v in %v (%d PS, Nw=%d, Ic=%d, replace=%v)\n",
		m.Name, *workers, gpu, region, *psCount, *steps, *ckptEvery, repl)

	// The measured session and the Eq. 4/5 prediction are independent
	// units the engine runs concurrently. The session's seed derives
	// from -seed; the prediction's calibration is fixed, so it matches
	// pland's estimate for the same plan.
	plan := &campaign.Plan{
		Seed: *seed,
		Units: []campaign.Unit{
			{Key: "measured", Run: func(unitSeed int64) (any, error) {
				sc := experiments.Scenario{Model: m, GPU: gpu, Region: region, Tier: cloud.Transient, Workers: *workers}
				opts := experiments.SessionOptions{ParameterServers: *psCount, Replacement: repl, DelaySeconds: *delay}
				return experiments.MeasureScenario(sc, *steps, *ckptEvery, opts, unitSeed)
			}},
			{Key: "prediction", Run: func(int64) (any, error) {
				est, err := predict(m, gpu, region, *workers, *psCount, *steps, *ckptEvery)
				if err != nil {
					return nil, err
				}
				return est, nil
			}},
		},
	}
	v, err := campaign.Engine{Workers: *parallel}.Run(plan)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmdare: %v\n", err)
		return 1
	}
	outs := v.([]any)
	mr := outs[0].(experiments.ScenarioOutcome)
	est := outs[1].(core.Estimate)

	fmt.Printf("\n-- measured --\n")
	fmt.Printf("training time:     %.0f s (%.2f h)\n", mr.TrainingSeconds, mr.TrainingSeconds/3600)
	fmt.Printf("steady speed:      %.2f steps/s\n", mr.SteadySpeed)
	fmt.Printf("checkpoints:       %d (%.0f s total)\n", mr.CheckpointCount, mr.CheckpointSeconds)
	fmt.Printf("revocations:       %d (replacements requested: %d)\n", mr.Revocations, mr.Replacements)
	fmt.Printf("cost:              $%.2f\n", mr.CostUSD)

	fmt.Printf("\n-- Eq. 4/5 prediction --\n")
	fmt.Printf("cluster speed:     %.2f steps/s\n", est.ClusterSpeed)
	fmt.Printf("compute term:      %.0f s\n", est.ComputeSeconds)
	fmt.Printf("checkpoint term:   %.0f s\n", est.CheckpointSeconds)
	fmt.Printf("revocation term:   %.0f s (Nr = %.3f)\n", est.RevocationSeconds, est.ExpectedRevocations)
	fmt.Printf("total:             %.0f s\n", est.TotalSeconds)
	fmt.Printf("predicted cost:    $%.2f\n", est.CostUSD)
	errPct := (est.TotalSeconds - mr.TrainingSeconds) / mr.TrainingSeconds * 100
	fmt.Printf("prediction error:  %+.2f%%\n", errPct)
	return 0
}

// predict is the Eq. 4/5 estimate for the plan from the calibrated
// predictor pland's /v1/estimate answers with (cmd/repro -exp endtoend
// runs the measured pipeline instead).
func predict(m model.Model, gpu model.GPU, region cloud.Region, workers, ps int, steps, ic int64) (core.Estimate, error) {
	predictor, err := core.CalibratedPredictor(m)
	if err != nil {
		return core.Estimate{}, err
	}
	placements := make([]core.Placement, workers)
	for i := range placements {
		placements[i] = core.Placement{GPU: gpu, Region: region.String(), Transient: true}
	}
	return predictor.Estimate(core.Plan{
		Model:              m,
		Workers:            placements,
		ParameterServers:   ps,
		TargetSteps:        steps,
		CheckpointInterval: ic,
	})
}
