package stats

import (
	"fmt"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. The paper uses empirical lifetime CDFs (Fig. 8) both for
// plotting and for the revocation-probability lookups in Eq. 5.
//
// The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample xs. The input is copied. It
// returns an error if xs is empty: an empty CDF has no sensible
// evaluation semantics and silently returning one hides campaign bugs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: ECDF requires a non-empty sample")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// MustECDF is NewECDF that panics on error, for literals in tests and
// experiment code where the sample is known to be non-empty.
func MustECDF(xs []float64) *ECDF {
	e, err := NewECDF(xs)
	if err != nil {
		panic(err)
	}
	return e
}

// Eval returns P(X ≤ x), the fraction of the sample at or below x.
func (e *ECDF) Eval(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x;
	// advance over ties to count values equal to x as ≤ x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with P(X ≤ v) ≥ p.
// It panics if p is outside [0, 1].
func (e *ECDF) Quantile(p float64) float64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: ECDF quantile probability %v outside [0,1]", p))
	}
	if p == 0 {
		return e.sorted[0]
	}
	idx := int(p*float64(len(e.sorted))) - 1
	if p*float64(len(e.sorted)) > float64(idx+1) {
		idx++
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Points returns (x, P(X ≤ x)) pairs at each distinct sample value, the
// series needed to draw the CDF as a step function.
func (e *ECDF) Points() (xs, ps []float64) {
	n := len(e.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && e.sorted[j] == e.sorted[i] {
			j++
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(j)/float64(n))
		i = j
	}
	return xs, ps
}
