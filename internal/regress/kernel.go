package regress

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite similarity function for SVR.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// String names the kernel for reports.
	String() string
}

// RBF is the radial-basis-function kernel
// exp(-‖a-b‖² / (2σ²)) the paper's best step-time and checkpoint
// models use (Eq. 3 and checkpoint model iv).
type RBF struct {
	// Sigma is the bandwidth σ; it must be positive.
	Sigma float64
}

var _ Kernel = RBF{}

// Eval returns the RBF similarity.
func (k RBF) Eval(a, b []float64) float64 {
	if k.Sigma <= 0 {
		panic(fmt.Sprintf("regress: RBF sigma %v must be positive", k.Sigma))
	}
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * k.Sigma * k.Sigma))
}

// String names the kernel.
func (k RBF) String() string { return fmt.Sprintf("rbf(sigma=%g)", k.Sigma) }

// Polynomial is the two-degree polynomial kernel (⟨a,b⟩ + c)^p of the
// paper's Eq. 2 (degree 2, the "SVR Polynomial Kernel" rows).
type Polynomial struct {
	Degree int
	Coef0  float64
}

var _ Kernel = Polynomial{}

// Eval returns the polynomial similarity.
func (k Polynomial) Eval(a, b []float64) float64 {
	if k.Degree <= 0 {
		panic(fmt.Sprintf("regress: polynomial degree %d must be positive", k.Degree))
	}
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	out := 1.0
	base := dot + k.Coef0
	for i := 0; i < k.Degree; i++ {
		out *= base
	}
	return out
}

// String names the kernel.
func (k Polynomial) String() string {
	return fmt.Sprintf("poly(degree=%d, coef0=%g)", k.Degree, k.Coef0)
}
