package fleet

import (
	"math"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
)

// logGFLOPs compresses the model-complexity feature: the zoo spans
// two orders of magnitude and the step-time curves are much closer to
// linear in log space, which keeps the one-feature fits sane.
func logGFLOPs(g float64) float64 {
	if g <= 0 {
		return 0
	}
	return math.Log(g)
}

// History is the fleet kernel's observation log: what the run has
// actually measured about its own markets so far. The kernel appends
// to it in event order on the single simulation thread — completed
// jobs as each finishes, startup samples and revocation exposure
// swept from the finished session's instance record — so the log is a
// pure function of (config, seed) and any scheduler reading it stays
// deterministic.
// It is the data side of the paper's CM-DARE loop (§V): observables
// collected while training feed the regression models that steer the
// next placement.
type History struct {
	completed []CompletedJob
	startups  []StartupSample
	// exposure accumulates transient instance-hours per (market,
	// region), the denominator of the observed revocation rate.
	exposure map[marketRegion]float64
	revCount map[marketRegion]int

	// fits memoizes fitted rate models per (market, GPU, tier, sample
	// count); a new completion changes the count and invalidates the
	// stale model, so memoization never alters results — only cost.
	fits map[rateFitKey]*rateModel
}

// CompletedJob is one finished job's realized training outcome.
type CompletedJob struct {
	Market  string
	GPU     model.GPU
	Tier    cloud.Tier
	GFLOPs  float64
	Workers int
	Steps   int64
	// TrainHours spans training start to target, inclusive of
	// checkpoint stalls and revocation recoveries — the effective
	// duration a deployment decision actually pays for.
	TrainHours float64
}

// PerWorkerRate is the observed effective per-worker training rate in
// steps/second, the target variable of the history-fed speed model.
func (c CompletedJob) PerWorkerRate() float64 {
	if c.TrainHours <= 0 || c.Workers <= 0 {
		return 0
	}
	return float64(c.Steps) / (c.TrainHours * 3600) / float64(c.Workers)
}

// StartupSample is one worker instance's observed request→running
// time (the paper's Tp, §V-B).
type StartupSample struct {
	Market  string
	Region  cloud.Region
	GPU     model.GPU
	Tier    cloud.Tier
	Seconds float64
}

type marketRegion struct {
	market string
	region cloud.Region
}

type rateFitKey struct {
	market string
	gpu    model.GPU
	tier   cloud.Tier
	n      int
}

// Sample-count thresholds for the staged estimator ladder: below
// minRateSamples the predictive scheduler stays on the analytic
// core.Predictor; from minRateSamples a linear fit on log-complexity
// takes over (the paper's univariate S = a·C + b family); from
// svrRateSamples the paper-grid SVR (C ∈ [10,100], ε ∈ [0.01,0.1],
// chosen by k-fold MAE exactly as §III-B) replaces it.
const (
	minRateSamples    = 4
	svrRateSamples    = 8
	minStartupSamples = 3
	// minRevExposureHours is the least transient instance-hours a
	// (market, region) must have accumulated before its observed
	// revocation rate is trusted over the prior of zero.
	minRevExposureHours = 12.0
)

// recordCompleted appends one finished job.
func (h *History) recordCompleted(c CompletedJob) {
	if c.TrainHours <= 0 {
		return
	}
	h.completed = append(h.completed, c)
}

// recordStartup appends one worker startup sample.
func (h *History) recordStartup(s StartupSample) {
	if s.Seconds < 0 {
		return
	}
	h.startups = append(h.startups, s)
}

// recordExposure accumulates transient instance-hours, and counts the
// revocation when the instance was revoked.
func (h *History) recordExposure(market string, r cloud.Region, lifetimeHours float64, revoked bool) {
	if h.exposure == nil {
		h.exposure = map[marketRegion]float64{}
		h.revCount = map[marketRegion]int{}
	}
	key := marketRegion{market, r}
	h.exposure[key] += lifetimeHours
	if revoked {
		h.revCount[key]++
	}
}

// StartupHours returns the mean observed request→running time for the
// market's tier, in hours, once enough samples exist.
func (h *History) StartupHours(market string, tier cloud.Tier) (float64, bool) {
	var sum float64
	n := 0
	for _, s := range h.startups {
		if s.Market != market || s.Tier != tier {
			continue
		}
		sum += s.Seconds
		n++
	}
	if n < minStartupSamples {
		return 0, false
	}
	return sum / float64(n) / 3600, true
}

// RevocationsPerHour returns the observed revocation rate of the
// (market, region) transient pool — revocations per instance-hour —
// once the region has accumulated enough exposure to trust it.
func (h *History) RevocationsPerHour(market string, r cloud.Region) (float64, bool) {
	key := marketRegion{market, r}
	exp := h.exposure[key]
	if exp < minRevExposureHours {
		return 0, false
	}
	return float64(h.revCount[key]) / exp, true
}

// PerWorkerRate predicts the effective per-worker training rate
// (steps/second) of a job with the given model complexity on (market,
// GPU, tier), fitted from this run's own completed jobs: a linear
// model on log-complexity once minRateSamples completions exist, the
// paper-grid SVR once svrRateSamples do. ok=false before that — the
// caller falls back to the analytic estimator.
func (h *History) PerWorkerRate(market string, g model.GPU, tier cloud.Tier, gflops float64) (float64, bool) {
	var X [][]float64
	var y []float64
	for _, c := range h.completed {
		if c.Market != market || c.GPU != g || c.Tier != tier {
			continue
		}
		rate := c.PerWorkerRate()
		if rate <= 0 {
			continue
		}
		X = append(X, []float64{logGFLOPs(c.GFLOPs)})
		y = append(y, rate)
	}
	if len(y) < minRateSamples {
		return 0, false
	}
	key := rateFitKey{market, g, tier, len(y)}
	m := h.fits[key]
	if m == nil {
		m = fitRateModel(X, y)
		if h.fits == nil {
			h.fits = map[rateFitKey]*rateModel{}
		}
		h.fits[key] = m
	}
	return m.predict(logGFLOPs(gflops)), true
}

// rateModel is one fitted (market, GPU, tier) speed model: a scaler, a
// regressor, and the training mean as the sanity floor extrapolation
// falls back to.
type rateModel struct {
	scaler *regress.MinMaxScaler
	reg    regress.Regressor
	mean   float64
}

func (m *rateModel) predict(logGFLOPs float64) float64 {
	if m.reg != nil {
		if v := m.reg.Predict(m.scaler.Transform([]float64{logGFLOPs})); v > 0 {
			return v
		}
	}
	return m.mean
}

// fitRateModel fits the staged ladder on (min-max scaled
// log-complexity → per-worker rate). Every draw of randomness is a
// pure function of the sample count, so the same history always yields
// the same coefficients — and therefore the same placements.
func fitRateModel(X [][]float64, y []float64) *rateModel {
	m := &rateModel{mean: stats.Mean(y), scaler: &regress.MinMaxScaler{}}
	scaled, err := m.scaler.FitTransform(X)
	if err != nil {
		m.scaler = nil
		return m
	}
	if len(y) >= svrRateSamples {
		k := 5
		if len(y) < k {
			k = len(y)
		}
		rng := stats.NewRng(int64(len(y))*1009 + 17)
		factory, _, _, _, err := regress.GridSearchSVR(regress.RBF{Sigma: 0.5}, regress.PaperSVRGrid(), scaled, y, k, rng)
		if err == nil {
			svr := factory()
			if svr.Fit(scaled, y) == nil {
				m.reg = svr
				return m
			}
		}
	}
	lin := &regress.Linear{}
	if lin.Fit(scaled, y) == nil {
		m.reg = lin
	}
	return m
}
