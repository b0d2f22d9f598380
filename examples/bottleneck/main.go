// Bottleneck detection and mitigation: the paper's §VI-B use case.
// CM-DARE compares the theoretically predicted cluster speed (Σ of
// per-worker speeds) with the online measurement; a deviation beyond
// 6.7% after a 30-second warm-up flags a parameter-server bottleneck,
// and adding a second parameter server (at the cost of a ≈10 s
// session restart) lifts it.
//
//	go run ./examples/bottleneck
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/train"
)

func main() {
	resnet32 := model.ResNet32()
	const workers = 8

	fmt.Println("== §VI-B: detecting and mitigating a parameter-server bottleneck ==")
	predicted := float64(workers) * model.StepsPerSecond(model.P100, resnet32)
	fmt.Printf("cluster: %d × P100 training %s; predicted speed Σspᵢ = %.1f steps/s\n",
		workers, resnet32.Name, predicted)

	// Run with one parameter server and let the detector judge.
	run1 := measure(resnet32, workers, 1)
	verdict, err := core.DetectBottleneck(predicted, run1.SpeedSeries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n1 PS: measured %.1f steps/s — deviation %.1f%% (threshold %.1f%%)\n",
		verdict.MeasuredSpeed, verdict.Deviation*100, core.BottleneckThreshold*100)
	if !verdict.Bottlenecked {
		fmt.Println("no bottleneck flagged; nothing to mitigate")
		return
	}
	fmt.Println("bottleneck FLAGGED → mitigation: restart session with 2 parameter servers")
	fmt.Printf("(session restart costs ≈%.0f s, §VI-B)\n", train.SessionRestartSeconds())

	run2 := measure(resnet32, workers, 2)
	verdict2, err := core.DetectBottleneck(predicted, run2.SpeedSeries)
	if err != nil {
		log.Fatal(err)
	}
	gain := (verdict2.MeasuredSpeed - verdict.MeasuredSpeed) / verdict.MeasuredSpeed * 100
	fmt.Printf("\n2 PS: measured %.1f steps/s — %.1f%% faster (paper: up to 70.6%%)\n",
		verdict2.MeasuredSpeed, gain)
	if verdict2.Bottlenecked {
		fmt.Printf("still %.1f%% below prediction — consider a third shard\n", verdict2.Deviation*100)
	} else {
		fmt.Println("within threshold of the theoretical speed: bottleneck resolved")
	}
}

func measure(m model.Model, workers, ps int) train.Result {
	k := &sim.Kernel{}
	c, err := train.NewCluster(k, train.Config{
		Model:            m,
		Workers:          train.Homogeneous(model.P100, workers),
		ParameterServers: ps,
		TargetSteps:      12000,
		Seed:             int64(ps),
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Start()
	k.Run()
	return c.Result()
}
