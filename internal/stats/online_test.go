package stats

import "testing"

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.N() != len(xs) {
		t.Fatalf("N = %d, want %d", acc.N(), len(xs))
	}
	if !almostEqual(acc.Mean(), Mean(xs), 1e-12) {
		t.Fatalf("Mean = %v, want %v", acc.Mean(), Mean(xs))
	}
	if !almostEqual(acc.Variance(), Variance(xs), 1e-12) {
		t.Fatalf("Variance = %v, want %v", acc.Variance(), Variance(xs))
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.Variance() != 0 || acc.CoV() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestHourHistogram(t *testing.T) {
	var h HourHistogram
	h.Add(10)
	h.Add(10)
	h.Add(34) // 34 mod 24 == 10
	h.Add(-1) // normalizes to 23
	h.Add(5)
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	hour, count := h.Peak()
	if hour != 10 || count != 3 {
		t.Fatalf("Peak = (%d, %d), want (10, 3)", hour, count)
	}
	if h.Counts[23] != 1 {
		t.Fatalf("negative hour not normalized: %v", h.Counts)
	}
}
