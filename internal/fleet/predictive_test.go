package fleet

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
)

// historyWithCompletions builds a history holding n completions of the
// zoo's models on (gce, K80, transient), each with synthetic training
// times consistent with a fixed per-worker rate.
func historyWithCompletions(n int, rate float64) *History {
	h := &History{}
	zoo := model.Zoo()
	for i := 0; i < n; i++ {
		m := zoo[i%len(zoo)]
		steps := int64(10000 + 1000*i)
		workers := 1 + i%3
		trainHours := float64(steps) / (rate * float64(workers) * 3600)
		h.recordCompleted(CompletedJob{
			Market:     cloud.DefaultProviderName,
			GPU:        model.K80,
			Tier:       cloud.Transient,
			GFLOPs:     m.GFLOPs,
			Workers:    workers,
			Steps:      steps,
			TrainHours: trainHours,
		})
	}
	return h
}

// TestHistoryRateFitDeterminism pins the feedback loop's reproducibility
// guarantee: identical observation logs must yield identical fitted
// coefficients and therefore identical predictions, at both the linear
// stage (≥ minRateSamples) and the SVR stage (≥ svrRateSamples).
func TestHistoryRateFitDeterminism(t *testing.T) {
	for _, n := range []int{minRateSamples, svrRateSamples + 3} {
		a := historyWithCompletions(n, 2.5)
		b := historyWithCompletions(n, 2.5)
		query := model.ResNet32().GFLOPs
		ra, oka := a.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.Transient, query)
		rb, okb := b.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.Transient, query)
		if !oka || !okb {
			t.Fatalf("n=%d: fit did not engage (ok=%v,%v)", n, oka, okb)
		}
		if ra != rb {
			t.Fatalf("n=%d: identical histories predict %v vs %v", n, ra, rb)
		}
		if ra <= 0 || math.IsNaN(ra) || math.IsInf(ra, 0) {
			t.Fatalf("n=%d: degenerate predicted rate %v", n, ra)
		}
		// Memoized re-query must agree with the fresh fit.
		if again, _ := a.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.Transient, query); again != ra {
			t.Fatalf("n=%d: memoized fit predicts %v, fresh fit %v", n, again, ra)
		}
	}
}

// TestHistoryRateFitThresholds pins the estimator ladder's gates: no
// fit below minRateSamples (the analytic fallback's regime), no
// cross-cell contamination, and history predictions actually tracking
// the observed rate once engaged.
func TestHistoryRateFitThresholds(t *testing.T) {
	h := historyWithCompletions(minRateSamples-1, 2.5)
	if _, ok := h.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.Transient, 100); ok {
		t.Fatalf("fit engaged with %d samples, threshold is %d", minRateSamples-1, minRateSamples)
	}
	h = historyWithCompletions(svrRateSamples, 2.5)
	// A different GPU, tier, or market has no samples at all.
	if _, ok := h.PerWorkerRate(cloud.DefaultProviderName, model.V100, cloud.Transient, 100); ok {
		t.Fatal("V100 fit engaged from K80 samples")
	}
	if _, ok := h.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.OnDemand, 100); ok {
		t.Fatal("on-demand fit engaged from transient samples")
	}
	if _, ok := h.PerWorkerRate("aws", model.K80, cloud.Transient, 100); ok {
		t.Fatal("aws fit engaged from gce samples")
	}
	// The synthetic log holds a constant 2.5 steps/s per worker; the
	// fitted model must predict in that neighborhood for an in-range
	// query.
	rate, ok := h.PerWorkerRate(cloud.DefaultProviderName, model.K80, cloud.Transient, model.ResNet32().GFLOPs)
	if !ok {
		t.Fatal("fit did not engage at the SVR threshold")
	}
	if rate < 1.5 || rate > 3.5 {
		t.Fatalf("fitted rate %v strays from the observed 2.5", rate)
	}
}

// TestHistoryStartupAndRevocationObservables pins the two auxiliary
// observables: startup means gate on minStartupSamples, revocation
// rates on accumulated exposure.
func TestHistoryStartupAndRevocationObservables(t *testing.T) {
	h := &History{}
	for i := 0; i < minStartupSamples; i++ {
		h.recordStartup(StartupSample{
			Market: "gce", Region: cloud.USCentral1, GPU: model.K80,
			Tier: cloud.Transient, Seconds: 60 + float64(i*30),
		})
	}
	got, ok := h.StartupHours("gce", cloud.Transient)
	if !ok {
		t.Fatal("startup mean did not engage at the threshold")
	}
	if want := 90.0 / 3600; math.Abs(got-want) > 1e-12 {
		t.Fatalf("startup mean %v h, want %v h", got, want)
	}
	if _, ok := h.StartupHours("gce", cloud.OnDemand); ok {
		t.Fatal("on-demand startup mean engaged from transient samples")
	}

	// Below the exposure floor the rate is untrusted; above it, it is
	// revocations over instance-hours.
	h.recordExposure("gce", cloud.USCentral1, model.K80, minRevExposureHours/2, true)
	if _, ok := h.RevocationsPerHour("gce", cloud.USCentral1); ok {
		t.Fatal("revocation rate trusted under the exposure floor")
	}
	h.recordExposure("gce", cloud.USCentral1, model.K80, minRevExposureHours/2, true)
	rate, ok := h.RevocationsPerHour("gce", cloud.USCentral1)
	if !ok {
		t.Fatal("revocation rate not trusted at the exposure floor")
	}
	if want := 2 / minRevExposureHours; math.Abs(rate-want) > 1e-12 {
		t.Fatalf("revocation rate %v, want %v", rate, want)
	}
	if h.Revocations() != 2 {
		t.Fatalf("recorded %d revocation samples, want 2", h.Revocations())
	}
}

// TestPredictHoursPrefersHistory pins the takeover: with a qualified
// history the prediction must come from the observed rate, not the
// analytic curves.
func TestPredictHoursPrefersHistory(t *testing.T) {
	job := JobSpec{
		ID: 0, Model: model.ResNet32(), GPU: model.K80,
		Workers: 2, Steps: 30000, CheckpointInterval: 1000,
	}
	// Four completions of one model pin the fitted rate to the sample
	// mean (a constant feature cannot support a slope), making the
	// expected prediction exact.
	h := &History{}
	const rate = 2.0
	for i := 0; i < minRateSamples; i++ {
		h.recordCompleted(CompletedJob{
			Market: cloud.DefaultProviderName, GPU: model.K80, Tier: cloud.Transient,
			GFLOPs: job.Model.GFLOPs, Workers: 2, Steps: 20000,
			TrainHours: 20000 / (rate * 2 * 3600),
		})
	}
	got := predictHours(h, cloud.DefaultProviderName, job, model.K80, cloud.USCentral1, cloud.Transient)
	want := 70.0/3600 + float64(job.Steps)/(rate*float64(job.Workers)*3600)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("history-fed prediction %v h, want %v h", got, want)
	}
	// An empty history must still answer (analytic fallback), and
	// differently — the takeover is observable.
	analytic := predictHours(&History{}, cloud.DefaultProviderName, job, model.K80, cloud.USCentral1, cloud.Transient)
	if analytic <= 0 || math.IsNaN(analytic) {
		t.Fatalf("analytic fallback returned %v", analytic)
	}
	if analytic == got {
		t.Fatal("analytic and history-fed predictions coincide; takeover untestable")
	}
}

// TestPredictHoursOffCatalogCorner pins the fleet's fallback for a
// corner the calibrated predictor has no lifetime CDF for — K80 on
// serverless-cpu in a region where gce sells no K80: the estimate drops
// only the revocation term, so it is finite, positive, and equals the
// same corner's on-demand prediction.
func TestPredictHoursOffCatalogCorner(t *testing.T) {
	if cloud.Offered(cloud.AsiaEast1, model.K80) {
		t.Fatal("gce sells K80 in asia-east1; pick another off-catalog corner")
	}
	job := JobSpec{
		ID: 0, Model: model.ResNet32(), GPU: model.K80,
		Workers: 2, Steps: 30000, CheckpointInterval: 1000,
	}
	got := predictHours(&History{}, "serverless-cpu", job, model.K80, cloud.AsiaEast1, cloud.Transient)
	if got <= 0 || math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("off-catalog transient prediction = %v h, want finite and positive", got)
	}
	if od := predictHours(&History{}, "serverless-cpu", job, model.K80, cloud.AsiaEast1, cloud.OnDemand); got != od {
		t.Fatalf("off-catalog transient prediction %v h, want the revocation-free %v h", got, od)
	}
}

// TestPredictiveRunIsDeterministic is the tentpole's reproducibility
// property end to end: same (config, seed) — and therefore the same
// accumulated history and the same fitted coefficients — must yield
// identical placements and results.
func TestPredictiveRunIsDeterministic(t *testing.T) {
	cfg := Config{
		Workload:     testWorkload(ArrivalBursty),
		Scheduler:    "predictive",
		Capacity:     tightCapacity(2),
		HorizonHours: 24,
	}
	a, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (config, seed) produced different predictive fleet results")
	}
	c, err := Run(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical predictive fleet results")
	}
}

// TestPredictivePickPlacesAndEscapes pins the policy's two moves on a
// synthetic pool: an open cell gets a feasible transient placement;
// a full pool holds the job until its predicted last responsible
// moment, then buys on-demand.
func TestPredictivePickPlacesAndEscapes(t *testing.T) {
	s, err := LookupScheduler("predictive")
	if err != nil {
		t.Fatal(err)
	}
	job := &Job{Spec: JobSpec{ID: 0, Model: model.ResNet15(), GPU: model.K80, Workers: 1, Steps: 34000}}
	job.Spec.DeadlineHours = job.Spec.OptimisticHours(model.K80) * 3

	open := fakePool{avail: map[cloud.PoolKey]int{
		{Region: cloud.USCentral1, GPU: model.K80}: 4,
	}}
	idx, pl, ok := s.Pick([]*Job{job}, open)
	if !ok || idx != 0 || pl.Tier != cloud.Transient {
		t.Fatalf("open pool: idx=%d pl=%v ok=%v, want a transient placement", idx, pl, ok)
	}

	full := fakePool{avail: map[cloud.PoolKey]int{}}
	if _, _, ok := s.Pick([]*Job{job}, full); ok {
		t.Fatal("full pool with plenty of slack: predictive bought on-demand early")
	}
	w, ok := s.(Waker)
	if !ok {
		t.Fatal("predictive does not implement Waker; its escape hatch would starve on a quiet queue")
	}
	at, ok := w.NextWakeHours([]*Job{job}, full)
	if !ok || at <= full.now || at >= job.Spec.DeadlineAtHours() {
		t.Fatalf("wake at %gh (ok=%v), want strictly between now and the deadline", at, ok)
	}
	// At the wake moment the fallback must actually fire.
	full.now = at + 1e-9
	idx, pl, ok = s.Pick([]*Job{job}, full)
	if !ok || idx != 0 || pl.Tier != cloud.OnDemand {
		t.Fatalf("at the last responsible moment: idx=%d pl=%v ok=%v, want on-demand", idx, pl, ok)
	}
}
