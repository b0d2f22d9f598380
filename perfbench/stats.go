package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// tailFloor is how many samples must lie beyond a reported tail
// percentile: fewer, and the percentile is one or two lucky samples.
const tailFloor = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1):
// the smallest sample with at least p·n samples at or below it. It
// fails when fewer than tailFloor samples lie strictly beyond that
// rank, so every reported tail rests on at least ten observations.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p*100, n)
	}
	rank := nearestRank(p, n)
	if beyond := n - rank; beyond < tailFloor {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p*100, n, beyond, tailFloor)
	}
	return sortedCopy(xs)[rank-1], nil
}

// minSamples is the smallest sample count whose p-quantile has
// tailFloor samples beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-nearestRank(p, n) >= tailFloor {
			return n
		}
	}
}

// nearestRank is the 1-based rank of the p-quantile among n samples.
// The epsilon keeps p·n from rounding up past an exact integer (0.99
// × 1000 must be rank 990, not 991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// fastestSum takes repetitions of one sequence of segments, each
// segment the same work in every repetition (runs[r][k] is segment k's
// seconds in repetition r), and sums each segment's fastest time. Other
// tenants of a shared host only ever slow a segment down, so on a
// host whose speed swings within a second the sum of the fastest times
// repeats far better than any repetition's total.
func fastestSum(runs [][]float64) float64 {
	var total float64
	for k := range runs[0] {
		best := runs[0][k]
		for _, r := range runs[1:] {
			best = min(best, r[k])
		}
		total += best
	}
	return total
}

// probeSeconds is the probe time the steady pass's wall_s is scaled
// to: wall_s is the pass's seconds on a host where probe takes 1ms.
const probeSeconds = 0.001

// probeScaledSum takes repetitions of one sequence of segments (segs[r][k]
// is segment k's seconds in repetition r) with the probe times around
// them (probes[r][k] before segment k, probes[r][k+1] after it). It
// divides each segment's time by the mean of its two probes, takes each
// segment's median over the repetitions, and sums the medians, times
// probeSeconds. On a host whose speed drifts over minutes a run's
// seconds move with the drift; the same work counted in probe times
// does not.
func probeScaledSum(segs, probes [][]float64) float64 {
	var total float64
	for k := range segs[0] {
		ratios := make([]float64, len(segs))
		for r := range segs {
			ratios[r] = segs[r][k] / ((probes[r][k] + probes[r][k+1]) / 2)
		}
		total += stats.Median(ratios)
	}
	return total * probeSeconds
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
