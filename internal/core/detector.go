package core

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/train"
)

// Detector flags parameter-server bottlenecks (and straggling workers)
// by comparing the theoretically predicted cluster speed with the
// measured one (§VI-B). The paper's operating point: a 30-second
// warm-up and a 6.7% deviation threshold, both chosen empirically.
type Detector struct {
	// WarmupSeconds of measurements are ignored before judging.
	WarmupSeconds float64
	// Threshold is the relative deviation that flags a bottleneck.
	Threshold float64
}

// NewDetector returns a detector at the paper's operating point.
func NewDetector() *Detector {
	return &Detector{WarmupSeconds: 30, Threshold: 0.067}
}

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

// Check compares a predicted cluster speed with a measured speed
// series. It returns an error if no sample survives the warm-up
// filter: judging with no data would silently pass bottlenecks.
func (d *Detector) Check(predicted float64, series []train.SpeedSample) (Verdict, error) {
	if predicted <= 0 {
		return Verdict{}, fmt.Errorf("core: non-positive predicted speed %v", predicted)
	}
	if len(series) == 0 {
		return Verdict{}, fmt.Errorf("core: empty speed series")
	}
	start := series[0].Time
	var post []float64
	for _, s := range series {
		if s.Time-start >= d.WarmupSeconds {
			post = append(post, s.Speed)
		}
	}
	if len(post) == 0 {
		return Verdict{}, fmt.Errorf("core: no samples after %.0fs warm-up", d.WarmupSeconds)
	}
	measured := stats.Mean(post)
	dev := (predicted - measured) / predicted
	return Verdict{
		PredictedSpeed: predicted,
		MeasuredSpeed:  measured,
		Deviation:      dev,
		Bottlenecked:   dev > d.Threshold,
		Samples:        len(post),
	}, nil
}
