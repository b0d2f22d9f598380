package model

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestClusterSpecCanonicalAndParse(t *testing.T) {
	spec := ClusterSpec{{V100, 1}, {K80, 2}, {K80, 1}}
	if got, want := spec.String(), "3xK80+1xV100"; got != want {
		t.Fatalf("canonical string = %q, want %q", got, want)
	}
	parsed, err := ParseClusterSpec("1xV100 + 2xK80+1xK80")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got, want := parsed.String(), "3xK80+1xV100"; got != want {
		t.Fatalf("parsed canonical = %q, want %q", got, want)
	}
	if parsed.TotalWorkers() != 4 {
		t.Fatalf("total workers = %d, want 4", parsed.TotalWorkers())
	}
	if !parsed.Heterogeneous() {
		t.Fatalf("3xK80+1xV100 should be heterogeneous")
	}
	if HomogeneousCluster(P100, 2).Heterogeneous() {
		t.Fatalf("2xP100 should be homogeneous")
	}
	if got := HomogeneousCluster(P100, 2).String(); got != "2xP100" {
		t.Fatalf("homogeneous string = %q", got)
	}
	for _, bad := range []string{"", "K80", "0xK80", "-1xP100", "2xTPU", overflowMerged, overflowTotal} {
		if _, err := ParseClusterSpec(bad); err == nil {
			t.Errorf("ParseClusterSpec(%q) accepted", bad)
		}
	}
}

// Cluster strings whose counts overflow int: the two K80 groups merge
// past MaxInt, and the three groups' total wraps around to one.
const (
	overflowMerged = "9223372036854775807xK80+1xK80"
	overflowTotal  = "9223372036854775807xK80+9223372036854775807xP100+3xV100"
)

// FuzzParseClusterSpec holds the parser to its contract: it never
// panics, and a nil error means a non-empty spec of positive counts
// whose total does not wrap and whose String parses back unchanged.
func FuzzParseClusterSpec(f *testing.F) {
	for _, seed := range []string{overflowMerged, overflowTotal, "2xK80+1xV100", "1xV100 + 2xK80+1xK80", "0xK80", "x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseClusterSpec(s)
		if err != nil {
			return
		}
		if len(spec) == 0 {
			t.Fatalf("ParseClusterSpec(%q) = empty spec, nil error", s)
		}
		total := 0
		for _, grp := range spec {
			if grp.Count <= 0 || total+grp.Count < total {
				t.Fatalf("ParseClusterSpec(%q) = %v: bad count or wrapped total", s, []WorkerGroup(spec))
			}
			total += grp.Count
		}
		if total != spec.TotalWorkers() {
			t.Fatalf("ParseClusterSpec(%q): TotalWorkers %d, want %d", s, spec.TotalWorkers(), total)
		}
		again, err := ParseClusterSpec(spec.String())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("ParseClusterSpec(%q) = %v; its String %q parses to %v, %v", s, []WorkerGroup(spec), spec.String(), []WorkerGroup(again), err)
		}
	})
}

// TestBatchSharesPreserveGlobalBatch is the rebalance property the
// synchronous mode relies on: for any worker count, weights, and
// feasible clamps, the shares sum to exactly the global batch and every
// share respects the [min, max] clamp.
func TestBatchSharesPreserveGlobalBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		min := 1 + rng.Intn(64)
		max := min + rng.Intn(512)
		// A feasible global batch for these clamps.
		global := n*min + rng.Intn(n*(max-min)+1)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()*30 + 0.01
		}
		shares := BatchShares(global, weights, min, max)
		sum := 0
		for i, s := range shares {
			sum += s
			if s < min || s > max {
				t.Fatalf("trial %d: share[%d]=%d outside [%d,%d] (n=%d global=%d)", trial, i, s, min, max, n, global)
			}
		}
		if sum != global {
			t.Fatalf("trial %d: shares sum %d != global %d (n=%d min=%d max=%d)", trial, sum, global, n, min, max)
		}
	}
}

// TestBatchSharesGlobalWinsWhenInfeasible pins the documented tiebreak:
// when the clamps cannot carry the global batch (a cluster shrunk below
// global/max workers), the exact global sum wins over the max clamp.
func TestBatchSharesGlobalWinsWhenInfeasible(t *testing.T) {
	shares := BatchShares(512, []float64{1}, 32, 128)
	if len(shares) != 1 || shares[0] != 512 {
		t.Fatalf("infeasible max clamp: shares = %v, want [512]", shares)
	}
	// Too many workers for the min clamp: sum still exact, shares ≥ 1.
	shares = BatchShares(8, []float64{1, 1, 1, 1}, 4, 16)
	sum := 0
	for _, s := range shares {
		sum += s
		if s < 1 {
			t.Fatalf("share below one sample: %v", shares)
		}
	}
	if sum != 8 {
		t.Fatalf("infeasible min clamp: sum %d != 8 (%v)", sum, shares)
	}
}

// TestBatchSharesProportionalToSpeed pins dynamic batching's point:
// faster workers carry more samples, deterministically.
func TestBatchSharesProportionalToSpeed(t *testing.T) {
	m := ResNet32()
	weights := []float64{
		StepsPerSecond(K80, m),
		StepsPerSecond(P100, m),
		StepsPerSecond(V100, m),
	}
	a := BatchShares(3*ReferenceBatch, weights, 1, 4*ReferenceBatch)
	b := BatchShares(3*ReferenceBatch, weights, 1, 4*ReferenceBatch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BatchShares not deterministic: %v vs %v", a, b)
		}
	}
	if !(a[0] < a[1] && a[1] < a[2]) {
		t.Fatalf("shares not ordered by speed: %v", a)
	}
}

func TestBatchTimeFactorCalibrationPoint(t *testing.T) {
	if got := BatchTimeFactor(ReferenceBatch); got != 1 {
		t.Fatalf("BatchTimeFactor(ReferenceBatch) = %v, want 1", got)
	}
	if !(BatchTimeFactor(2*ReferenceBatch) < 2) {
		t.Fatalf("doubling the batch should less-than-double the step (fixed fraction)")
	}
	if !(BatchTimeFactor(ReferenceBatch/2) > 0.5) {
		t.Fatalf("halving the batch should less-than-halve the step")
	}
}
