package stats

import (
	"math"
	"math/rand"
)

// Rng wraps a seeded *rand.Rand with the variate generators the cloud
// and training simulators need. All CM-DARE randomness flows through
// explicitly seeded Rng values; there is no package-level generator, so
// every experiment is reproducible from its seed.
type Rng struct {
	r *rand.Rand
}

// NewRng returns a generator seeded with seed.
func NewRng(seed int64) *Rng {
	return &Rng{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator from this one. Simulator
// components fork the experiment RNG once at construction so that
// adding a new consumer does not perturb the draws seen by existing
// ones.
func (g *Rng) Fork() *Rng {
	return NewRng(g.r.Int63())
}

// Float64 returns a uniform variate in [0, 1).
func (g *Rng) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *Rng) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *Rng) Int63() int64 { return g.r.Int63() }

// Perm returns a random permutation of [0, n).
func (g *Rng) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform variate in [lo, hi).
func (g *Rng) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (g *Rng) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// NormalPos returns a normal variate truncated below at a small
// positive floor; used for durations that must remain positive (stage
// times, service times).
func (g *Rng) NormalPos(mean, std float64) float64 {
	const floor = 1e-9
	for i := 0; i < 64; i++ {
		if v := g.Normal(mean, std); v > floor {
			return v
		}
	}
	return floor
}

// LogNormal returns a log-normal variate parameterized directly by the
// desired mean and coefficient of variation of the resulting
// distribution (not of the underlying normal). This is the natural
// parameterization for multiplicative timing noise: the paper reports
// step-time CoV ≈ 0.02 (Fig. 2) and checkpoint-time CoV 0.018–0.073
// (Fig. 5).
func (g *Rng) LogNormal(mean, cov float64) float64 {
	d := MakeLogNormalDist(mean, cov)
	return d.Sample(g)
}

// LogNormalDist is a frozen (mean, CoV) log-normal parameterization.
// Freezing performs the two logarithms and the square root that
// Rng.LogNormal would otherwise redo on every call, leaving Sample one
// normal variate and one exponential — about a third of the per-draw
// cost. Sample consumes exactly the variates LogNormal(mean, cov)
// would and computes bit-identical values through the same floating-
// point expression, so hot paths may switch between the two forms
// without perturbing any seeded stream.
type LogNormalDist struct {
	mean, cov float64
	mu, sigma float64
}

// MakeLogNormalDist freezes the parameterization Rng.LogNormal(mean,
// cov) derives on each call.
func MakeLogNormalDist(mean, cov float64) LogNormalDist {
	d := LogNormalDist{mean: mean, cov: cov}
	if mean > 0 && cov > 0 {
		sigma2 := math.Log(1 + cov*cov)
		d.mu = math.Log(mean) - sigma2/2
		d.sigma = math.Sqrt(sigma2)
	}
	return d
}

// Mean returns the mean the distribution was frozen with, letting
// single-entry caches detect a stale parameterization.
func (d LogNormalDist) Mean() float64 { return d.mean }

// Sample returns the next variate from g. A non-positive mean yields
// 0 and a non-positive CoV yields the mean exactly, consuming no
// randomness — mirroring Rng.LogNormal's degenerate cases. The pointer
// receiver keeps the per-draw call from copying the struct.
func (d *LogNormalDist) Sample(g *Rng) float64 {
	if d.mean <= 0 {
		return 0
	}
	if d.cov <= 0 {
		return d.mean
	}
	return math.Exp(d.mu + d.sigma*g.r.NormFloat64())
}

// Exponential returns an exponential variate with the given mean.
func (g *Rng) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Weibull returns a Weibull variate with the given scale λ and shape k.
// Shape < 1 yields the front-loaded failure behavior seen in some
// transient-server lifetime distributions.
func (g *Rng) Weibull(scale, shape float64) float64 {
	u := g.r.Float64()
	// Invert the CDF F(x) = 1 - exp(-(x/λ)^k). Guard u == 0.
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Bernoulli returns true with probability p.
func (g *Rng) Bernoulli(p float64) bool {
	return g.r.Float64() < p
}
