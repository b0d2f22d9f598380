package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/train"
)

// The paper's bottleneck-detector operating point (§VI-B), both chosen
// empirically: the first BottleneckWarmupSeconds of measurements are
// ignored, and a measured speed short of the prediction by more than
// BottleneckThreshold, relatively, flags a bottleneck.
const (
	BottleneckWarmupSeconds = 30.0
	BottleneckThreshold     = 0.067
)

// Verdict is the outcome of a bottleneck check.
type Verdict struct {
	// PredictedSpeed is sp = Σ spᵢ; MeasuredSpeed the post-warm-up
	// observed mean.
	PredictedSpeed float64
	MeasuredSpeed  float64
	// Deviation is (predicted − measured) / predicted.
	Deviation float64
	// Bottlenecked is true when the measured speed falls short of the
	// prediction by more than the threshold.
	Bottlenecked bool
	// Samples is how many post-warm-up windows informed the verdict.
	Samples int
}

// DetectBottleneck flags parameter-server bottlenecks (and straggling
// workers) by comparing a predicted cluster speed with a measured speed
// series (§VI-B). It returns an error if no sample survives the
// warm-up filter: judging with no data would silently pass
// bottlenecks.
func DetectBottleneck(predicted float64, series []train.SpeedSample) (Verdict, error) {
	if predicted <= 0 {
		return Verdict{}, fmt.Errorf("core: non-positive predicted speed %v", predicted)
	}
	if len(series) == 0 {
		return Verdict{}, fmt.Errorf("core: empty speed series")
	}
	start := series[0].Time
	var post []float64
	for _, s := range series {
		if s.Time-start >= BottleneckWarmupSeconds {
			post = append(post, s.Speed)
		}
	}
	if len(post) == 0 {
		return Verdict{}, fmt.Errorf("core: no samples after %.0fs warm-up", BottleneckWarmupSeconds)
	}
	measured := stats.Mean(post)
	dev := (predicted - measured) / predicted
	return Verdict{
		PredictedSpeed: predicted,
		MeasuredSpeed:  measured,
		Deviation:      dev,
		Bottlenecked:   dev > BottleneckThreshold,
		Samples:        len(post),
	}, nil
}
