package model

import "fmt"

// stepAnchor is one calibrated (complexity, step time) point.
type stepAnchor struct {
	gflops float64
	step   float64 // seconds per training step
}

// stepAnchors pins the per-GPU step-time curve to the paper's Table I:
// the measured steps/second for ResNet-15, ResNet-32, Shake-Shake
// Small, and Shake-Shake Big, inverted to seconds/step. Between
// anchors we interpolate linearly; outside we extend the nearest
// segment. The curvature across segments (GPUs get more efficient as
// larger models saturate them) is exactly what makes the paper's
// RBF-kernel SVR beat plain linear regression in Table II.
var stepAnchors = map[GPU][]stepAnchor{
	K80: {
		{0.59, 1 / 9.46}, // ResNet-15
		{1.54, 1 / 4.56}, // ResNet-32
		{2.41, 1 / 2.58}, // Shake-Shake Small
		{21.3, 1 / 0.70}, // Shake-Shake Big
	},
	P100: {
		{0.59, 1 / 21.16},
		{1.54, 1 / 12.19},
		{2.41, 1 / 6.99},
		{21.3, 1 / 1.98},
	},
	V100: {
		{0.59, 1 / 27.38},
		{1.54, 1 / 15.61},
		{2.41, 1 / 8.80},
		{21.3, 1 / 2.18},
	},
}

// minStepTime floors the extrapolation below the smallest anchor: even
// a trivial model pays kernel-launch and input-pipeline overhead.
var minStepTime = map[GPU]float64{
	K80:  0.020,
	P100: 0.010,
	V100: 0.008,
}

// StepTime returns the calibrated mean seconds per training step for
// the given model complexity (GFLOPs) on the given GPU, for the
// paper's baseline cluster (one worker, one parameter server, same
// data center). This is the noise-free expectation; the training
// simulator multiplies in per-step lognormal noise.
func StepTime(g GPU, gflops float64) float64 {
	anchors, ok := stepAnchors[g]
	if !ok {
		panic(fmt.Sprintf("model: no step-time calibration for GPU %v", g))
	}
	if gflops <= 0 {
		panic(fmt.Sprintf("model: non-positive complexity %v", gflops))
	}
	t := interpolate(anchors, gflops)
	if floor := minStepTime[g]; t < floor {
		t = floor
	}
	return t
}

// StepTimeModel returns StepTime for a zoo model.
func StepTimeModel(g GPU, m Model) float64 {
	return StepTime(g, m.GFLOPs)
}

// StepsPerSecond is the inverse of StepTime: the baseline single-worker
// training speed the paper reports in Table I.
func StepsPerSecond(g GPU, m Model) float64 {
	return 1 / StepTimeModel(g, m)
}

func interpolate(anchors []stepAnchor, x float64) float64 {
	// Below the first anchor or above the last, extend the nearest
	// segment linearly.
	if x <= anchors[0].gflops {
		return segment(anchors[0], anchors[1], x)
	}
	for i := 0; i+1 < len(anchors); i++ {
		if x <= anchors[i+1].gflops {
			return segment(anchors[i], anchors[i+1], x)
		}
	}
	n := len(anchors)
	return segment(anchors[n-2], anchors[n-1], x)
}

func segment(a, b stepAnchor, x float64) float64 {
	slope := (b.step - a.step) / (b.gflops - a.gflops)
	return a.step + slope*(x-a.gflops)
}

// ReferenceBatch is the per-worker minibatch size the Table I step
// times were measured at (the paper's CIFAR-10 methodology trains with
// 128-sample minibatches). Dynamic batch sizing scales each worker's
// step time through BatchTimeFactor relative to this calibration
// point.
const ReferenceBatch = 128

// MinBatchShare and MaxBatchShare clamp any one worker's share of a
// synchronous global minibatch (see BatchShares) to a quarter and four
// times ReferenceBatch: far enough from the calibration point for
// dynamic batching to matter, close enough that BatchTimeFactor's
// linear model still holds.
const (
	MinBatchShare = ReferenceBatch / 4
	MaxBatchShare = ReferenceBatch * 4
)

// batchFixedFraction is the share of a step that does not scale with
// the minibatch: kernel launches, input-pipeline latency, and the
// gradient exchange all cost the same for 32 samples as for 512. This
// is what makes strong scaling sublinear — halving a worker's batch
// does not halve its step time.
const batchFixedFraction = 0.25

// BatchTimeFactor returns the step-time multiplier for a per-worker
// minibatch of b samples relative to ReferenceBatch: a fixed fraction
// plus a part linear in the batch. b == ReferenceBatch gives exactly
// 1, so clusters that never rebalance keep the Table I calibration.
func BatchTimeFactor(b int) float64 {
	if b <= 0 {
		return batchFixedFraction
	}
	return batchFixedFraction + (1-batchFixedFraction)*float64(b)/ReferenceBatch
}

// StepTimeCoV is the per-step multiplicative noise level. Fig. 2
// reports a maximum coefficient of variation of 0.02 for steady-state
// single-worker training.
const StepTimeCoV = 0.02

// WarmupSteps and WarmupFactor model the warm-up transient visible in
// Fig. 2: the first ~100 steps run slower while the input pipeline and
// kernels warm, which is why the paper discards the first 100 steps of
// every measurement.
const (
	WarmupSteps  = 100
	WarmupFactor = 2.5 // step-time multiplier at step 0, decaying to 1
)

// WarmupMultiplier returns the step-time multiplier at a given step
// index: WarmupFactor at step 0 decaying linearly to 1 at WarmupSteps.
func WarmupMultiplier(step int64) float64 {
	if step >= WarmupSteps {
		return 1
	}
	frac := float64(step) / WarmupSteps
	return WarmupFactor - (WarmupFactor-1)*frac
}
