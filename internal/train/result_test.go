package train

import (
	"math"
	"testing"

	"repro/internal/profile"
	"repro/internal/stats"
)

// steadyOracle is the filter steadyOf replaces: gather every window
// after index 0 that ends past warm-up, then summarize with the stats
// package.
func steadyOracle(series []profile.SpeedSample, warmupEndTime float64) (mean, cov float64) {
	var used []float64
	for i, s := range series {
		if i == 0 || s.Time <= warmupEndTime {
			continue
		}
		used = append(used, s.Speed)
	}
	if len(used) == 0 {
		return 0, 0
	}
	return stats.Mean(used), stats.CoV(used)
}

// TestSteadyOfMatchesStatsOracle pins the buffer-free summary to the
// bits of stats.Mean and stats.CoV over the windows the filter keeps.
func TestSteadyOfMatchesStatsOracle(t *testing.T) {
	windows := func(times, speeds []float64) []profile.SpeedSample {
		out := make([]profile.SpeedSample, len(times))
		for i := range times {
			out[i] = profile.SpeedSample{Step: int64(100 * (i + 1)), Time: times[i], Speed: speeds[i]}
		}
		return out
	}
	type tc struct {
		name    string
		series  []profile.SpeedSample
		warmupS float64
	}
	cases := []tc{
		{"empty", nil, 0},
		{"single window", windows([]float64{10}, []float64{9.5}), 0},
		{"all inside warm-up", windows([]float64{10, 20, 30}, []float64{4, 9, 9.5}), 30},
		{"warm-up ends on a sample", windows([]float64{10, 20, 30, 40, 50}, []float64{4, 9, 9.5, 9.4, 9.6}), 30},
		{"all-zero speeds", windows([]float64{10, 20, 30, 40}, []float64{0, 0, 0, 0}), 0},
	}
	rng := stats.NewRng(17)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		times := make([]float64, n)
		speeds := make([]float64, n)
		var now float64
		for i := range times {
			// Equal consecutive times happen when two windows close at
			// one simulated instant.
			if rng.Intn(4) > 0 {
				now += rng.Exponential(10)
			}
			times[i] = now
			speeds[i] = rng.Normal(9, 0.3)
		}
		warmup := rng.Uniform(0, now)
		if n > 0 && rng.Intn(2) == 0 {
			warmup = times[rng.Intn(n)]
		}
		cases = append(cases, tc{"random", windows(times, speeds), warmup})
	}
	for i, c := range cases {
		gotMean, gotCoV := steadyOf(c.series, c.warmupS)
		wantMean, wantCoV := steadyOracle(c.series, c.warmupS)
		if math.Float64bits(gotMean) != math.Float64bits(wantMean) || math.Float64bits(gotCoV) != math.Float64bits(wantCoV) {
			t.Errorf("case %d (%s): steadyOf = (%v, %v), oracle = (%v, %v)", i, c.name, gotMean, gotCoV, wantMean, wantCoV)
		}
	}
	if m, cov := steadyOf(cases[3].series, cases[3].warmupS); m != 9.5 || cov == 0 {
		t.Errorf("a window ending exactly at warm-up must be dropped: mean %v, CoV %v", m, cov)
	}
}
