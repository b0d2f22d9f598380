package train_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/train"
)

// TestDynamicBatchingTamesStragglers is the straggler property: on a
// mixed cluster, speed-proportional shares beat an equal split because
// the equal split leaves the K80 gating every round (Tyagi & Sharma's
// motivation). The analytic core estimator must agree with the
// simulated ordering. The test lives in the external package because
// internal/core imports train.
func TestDynamicBatchingTamesStragglers(t *testing.T) {
	workers := train.Mixed(2, 1, 1)
	equal := train.RunCluster(t, train.SyncConfig(4*model.ReferenceBatch, false, workers))
	dyn := train.RunCluster(t, train.SyncConfig(4*model.ReferenceBatch, true, workers))
	if !equal.Done || !dyn.Done {
		t.Fatal("sessions did not finish")
	}
	if dyn.TotalSeconds >= equal.TotalSeconds {
		t.Fatalf("dynamic batching not faster: dynamic %.1fs vs equal %.1fs", dyn.TotalSeconds, equal.TotalSeconds)
	}
	m := model.ResNet32()
	gpus := []model.GPU{model.K80, model.K80, model.P100, model.V100}
	eqShares := model.BatchShares(4*model.ReferenceBatch, []float64{1, 1, 1, 1}, 1, 4*model.ReferenceBatch)
	weights := make([]float64, len(gpus))
	for i, g := range gpus {
		weights[i] = model.StepsPerSecond(g, m)
	}
	dynShares := model.BatchShares(4*model.ReferenceBatch, weights, 1, 4*model.ReferenceBatch)
	eqRound, err := core.SyncRoundSeconds(gpus, eqShares, m.GFLOPs)
	if err != nil {
		t.Fatal(err)
	}
	dynRound, err := core.SyncRoundSeconds(gpus, dynShares, m.GFLOPs)
	if err != nil {
		t.Fatal(err)
	}
	if dynRound >= eqRound {
		t.Fatalf("analytic round times disagree with the straggler model: dyn %.3f vs eq %.3f", dynRound, eqRound)
	}
	// The simulated speedup should be in the analytic ballpark (PS
	// service and noise shift it, but not by an order of magnitude).
	simRatio := equal.TotalSeconds / dyn.TotalSeconds
	anaRatio := eqRound / dynRound
	if simRatio < 1+(anaRatio-1)/3 {
		t.Fatalf("simulated speedup %.2f far below analytic %.2f", simRatio, anaRatio)
	}
}
