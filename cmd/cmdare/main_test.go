package main

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/planner"
)

// TestPredictionMatchesPland pins cmdare's Eq. 4/5 prediction to
// pland's /v1/estimate answer for the default plan: ResNet-32 on
// 2×K80 transient in us-central1, Nw 64000, Ic 4000, one parameter
// server. Both come from the same calibrated predictor, so every field
// must agree exactly.
func TestPredictionMatchesPland(t *testing.T) {
	if testing.Short() {
		t.Skip("model fitting in -short mode")
	}
	const steps = 64000
	est, err := predict(model.ResNet32(), model.K80, cloud.USCentral1, 2, 1, steps, 4000)
	if err != nil {
		t.Fatal(err)
	}
	p := planner.New(planner.Config{Workers: 1})
	defer p.Close()
	want, err := p.Estimate(context.Background(), planner.ScenarioQuery{
		Model: "ResNet-32", GPU: "K80", Region: "us-central1", Tier: "transient",
		Workers: 2, TargetSteps: steps, CheckpointInterval: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := planner.EstimateResult{
		Scenario:            want.Scenario,
		ClusterStepsPerSec:  est.ClusterSpeed,
		ComputeHours:        est.ComputeSeconds / 3600,
		CheckpointHours:     est.CheckpointSeconds / 3600,
		ExpectedRevocations: est.ExpectedRevocations,
		RevocationHours:     est.RevocationSeconds / 3600,
		TotalHours:          est.TotalSeconds / 3600,
		CostUSD:             est.CostUSD,
		CostPer1kSteps:      est.CostUSD / (float64(steps) / 1000),
	}
	if got != want {
		t.Fatalf("cmdare prediction differs from pland's estimate:\n got  %+v\n want %+v", got, want)
	}
}
