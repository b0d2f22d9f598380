package stats

import (
	"math"
	"testing"
)

func TestRngDeterminism(t *testing.T) {
	a := NewRng(42)
	b := NewRng(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should yield identical streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRng(7)
	child := parent.Fork()
	// The child stream must not simply replay the parent stream.
	same := 0
	for i := 0; i < 32; i++ {
		if parent.Float64() == child.Float64() {
			same++
		}
	}
	if same == 32 {
		t.Fatal("forked generator replays parent stream")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRng(1)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(g.Normal(10, 2))
	}
	if !almostEqual(acc.Mean(), 10, 0.05) {
		t.Fatalf("Normal mean = %v, want ≈10", acc.Mean())
	}
	if !almostEqual(acc.Std(), 2, 0.05) {
		t.Fatalf("Normal std = %v, want ≈2", acc.Std())
	}
}

func TestNormalPosIsPositive(t *testing.T) {
	g := NewRng(2)
	for i := 0; i < 10000; i++ {
		if v := g.NormalPos(0.5, 2); v <= 0 {
			t.Fatalf("NormalPos returned non-positive %v", v)
		}
	}
}

func TestLogNormalMeanAndCoV(t *testing.T) {
	g := NewRng(3)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(g.LogNormal(0.25, 0.1))
	}
	if !almostEqual(acc.Mean(), 0.25, 0.005) {
		t.Fatalf("LogNormal mean = %v, want ≈0.25", acc.Mean())
	}
	if !almostEqual(acc.CoV(), 0.1, 0.01) {
		t.Fatalf("LogNormal CoV = %v, want ≈0.1", acc.CoV())
	}
	if g.LogNormal(0.25, 0) != 0.25 {
		t.Fatal("LogNormal with zero CoV should be deterministic")
	}
	if g.LogNormal(0, 0.5) != 0 {
		t.Fatal("LogNormal with zero mean should be 0")
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRng(4)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(g.Exponential(3))
	}
	if !almostEqual(acc.Mean(), 3, 0.05) {
		t.Fatalf("Exponential mean = %v, want ≈3", acc.Mean())
	}
}

func TestWeibullShapeOne(t *testing.T) {
	// Weibull with shape 1 is exponential: mean == scale.
	g := NewRng(5)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(g.Weibull(2, 1))
	}
	if !almostEqual(acc.Mean(), 2, 0.05) {
		t.Fatalf("Weibull(2,1) mean = %v, want ≈2", acc.Mean())
	}
}

func TestBernoulliRate(t *testing.T) {
	g := NewRng(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if !almostEqual(rate, 0.3, 0.01) {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRng(9)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(5, 6)
		if v < 5 || v >= 6 {
			t.Fatalf("Uniform(5,6) = %v out of range", v)
		}
	}
}

func TestWeibullPositive(t *testing.T) {
	g := NewRng(10)
	for i := 0; i < 10000; i++ {
		if v := g.Weibull(1.5, 0.7); v < 0 || math.IsNaN(v) {
			t.Fatalf("Weibull variate invalid: %v", v)
		}
	}
}
