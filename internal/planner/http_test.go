package planner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPRepeatedDefaultSweepFromCache is the wire-level acceptance
// test: pland answers a repeated DefaultSweep query (`{}`) entirely
// from cache — zero additional simulation runs — and streams one
// NDJSON line per grid cell both times.
func TestHTTPRepeatedDefaultSweepFromCache(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 256})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	grid := len(experiments.DefaultSweep().Scenarios())
	sweep := func() []SweepItem {
		resp := postJSON(t, srv.URL+"/v1/sweep", `{}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
		}
		var items []SweepItem
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var it SweepItem
			if err := json.Unmarshal(line, &it); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			items = append(items, it)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return items
	}

	first := sweep()
	if len(first) != grid {
		t.Fatalf("first sweep streamed %d lines, want %d", len(first), grid)
	}
	if n := sims.Load(); n != int64(grid) {
		t.Fatalf("first sweep ran %d simulations, want %d", n, grid)
	}
	second := sweep()
	if n := sims.Load(); n != int64(grid) {
		t.Fatalf("repeated sweep ran %d additional simulations, want 0", n-int64(grid))
	}
	if len(second) != grid {
		t.Fatalf("repeated sweep streamed %d lines, want %d", len(second), grid)
	}
	for i, it := range second {
		if it.Err != "" || it.Outcome == nil || !it.Outcome.Cached {
			t.Fatalf("line %d not served from cache: %+v", i, it)
		}
	}
}

func TestHTTPMeasureAndStats(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"on-demand","workers":2,"target_steps":1000,"seed":5}`
	resp := postJSON(t, srv.URL+"/v1/measure", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure status = %d", resp.StatusCode)
	}
	out := decodeBody[Outcome](t, resp)
	if out.Scenario != "2×K80 us-central1 on-demand" || out.Cached {
		t.Fatalf("first measure = %+v", out)
	}
	out = decodeBody[Outcome](t, postJSON(t, srv.URL+"/v1/measure", body))
	if !out.Cached {
		t.Fatalf("repeated measure not cached: %+v", out)
	}
	if sims.Load() != 1 {
		t.Fatalf("%d simulations for a repeated query, want 1", sims.Load())
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[Stats](t, resp)
	if st.Hits != 1 || st.Misses != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPCheapest(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims) // workers=1 → 10 h, $100; workers=2 → 5 h, $200
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"model":"ResNet-15","sizes":[1,2],"gpus":["K80"],"regions":["us-central1"],` +
		`"tiers":["on-demand"],"target_steps":1000,"deadline_hours":6,"seed":1}`
	resp := postJSON(t, srv.URL+"/v1/cheapest", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cheapest status = %d", resp.StatusCode)
	}
	res := decodeBody[CheapestResult](t, resp)
	if res.Best == nil || res.Best.Scenario != "2×K80 us-central1 on-demand" {
		t.Fatalf("cheapest = %+v", res)
	}
}

func TestHTTPValidationAndRouting(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 4})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	for name, tc := range map[string]struct {
		path, body string
		status     int
	}{
		"unknown model":          {"/v1/measure", `{"model":"NoNet","gpu":"K80","region":"us-central1","tier":"on-demand","workers":1,"target_steps":1}`, 400},
		"unknown field":          {"/v1/measure", `{"modle":"ResNet-15"}`, 400},
		"malformed json":         {"/v1/measure", `{`, 400},
		"bad sweep gpu":          {"/v1/sweep", `{"gpus":["H100"]}`, 400},
		"empty sweep grid":       {"/v1/sweep", `{"gpus":["V100"],"regions":["us-east1"]}`, 400},
		"bad grid size":          {"/v1/cheapest", `{"sizes":[0],"target_steps":10}`, 400},
		"missing steps":          {"/v1/cheapest", `{}`, 400},
		"negative ic":            {"/v1/measure", `{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"on-demand","workers":1,"target_steps":10,"checkpoint_interval":-5}`, 400},
		"negative ic (cheapest)": {"/v1/cheapest", `{"target_steps":10,"checkpoint_interval":-5}`, 400},
		"unoffered combo":        {"/v1/estimate", `{"model":"ResNet-15","gpu":"V100","region":"us-east1","tier":"on-demand","workers":1,"target_steps":1}`, 400},
		"mixed estimate":         {"/v1/estimate", `{"model":"ResNet-15","cluster":"2xK80+1xV100","region":"us-central1","tier":"transient","target_steps":1}`, 400},
		"elastic estimate":       {"/v1/estimate", `{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"transient","workers":3,"elastic":"surge","target_steps":1}`, 400},
		// Cluster counts that overflow int: the merged K80 groups
		// vanish, and the three groups' total wraps around to one.
		"merged overflow (measure)":  {"/v1/measure", `{"model":"ResNet-15","cluster":"9223372036854775807xK80+1xK80","region":"us-central1","tier":"transient","target_steps":1}`, 400},
		"merged overflow (estimate)": {"/v1/estimate", `{"model":"ResNet-15","cluster":"9223372036854775807xK80+1xK80","region":"us-central1","tier":"transient","target_steps":1}`, 400},
		"wrapped total (measure)":    {"/v1/measure", `{"model":"ResNet-15","cluster":"9223372036854775807xK80+9223372036854775807xP100+3xV100","region":"us-central1","tier":"transient","target_steps":1}`, 400},
		"wrapped total (estimate)":   {"/v1/estimate", `{"model":"ResNet-15","cluster":"9223372036854775807xK80+9223372036854775807xP100+3xV100","region":"us-central1","tier":"transient","target_steps":1}`, 400},
	} {
		resp := postJSON(t, srv.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.status)
		}
	}

	// Wrong method routes to 405.
	resp, err := http.Get(srv.URL + "/v1/measure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/measure = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok := decodeBody[map[string]bool](t, resp)
	if !ok["ok"] {
		t.Error("healthz not ok")
	}

	resp, err = http.Get(srv.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[Catalog](t, resp)
	if len(cat.Models) == 0 || len(cat.GPUs) != 3 || len(cat.Regions) != 6 || len(cat.Tiers) != 2 {
		t.Errorf("catalog = %+v", cat)
	}
}

// TestHTTPRealMeasureSession drives one real (tiny) managed session
// end to end through the HTTP API — no fakes — so the daemon's wiring
// to the simulation substrate stays honest.
func TestHTTPRealMeasureSession(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"on-demand","workers":1,"target_steps":600,"seed":11}`
	resp := postJSON(t, srv.URL+"/v1/measure", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure status = %d", resp.StatusCode)
	}
	out := decodeBody[Outcome](t, resp)
	if out.TrainingHours <= 0 || out.CostUSD <= 0 || out.SteadyStepsPerSec <= 0 {
		t.Fatalf("implausible real measurement: %+v", out)
	}
	// Determinism: the same query must return the identical outcome
	// (from cache, but equal even if recomputed).
	again := decodeBody[Outcome](t, postJSON(t, srv.URL+"/v1/measure", body))
	if again.TrainingHours != out.TrainingHours || again.CostUSD != out.CostUSD {
		t.Fatalf("repeated real measurement differs: %+v vs %+v", out, again)
	}
}

// TestHTTPRealEstimate exercises the analytic Eq. 4/5 path with the
// real calibrated predictor.
func TestHTTPRealEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("model fitting in -short mode")
	}
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"model":"ResNet-32","gpu":"P100","region":"us-central1","tier":"transient","workers":4,"target_steps":64000,"checkpoint_interval":4000}`
	resp := postJSON(t, srv.URL+"/v1/estimate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}
	est := decodeBody[EstimateResult](t, resp)
	if est.TotalHours <= 0 || est.CostUSD <= 0 || est.ClusterStepsPerSec <= 0 {
		t.Fatalf("implausible estimate: %+v", est)
	}
	if est.ExpectedRevocations < 0 {
		t.Fatalf("negative expected revocations: %+v", est)
	}
	// The homogeneous cluster phrasing under an explicit static policy
	// is the same scenario and must answer with the same numbers.
	homog := `{"model":"ResNet-32","cluster":"4xP100","elastic":"static","region":"us-central1","tier":"transient","target_steps":64000,"checkpoint_interval":4000}`
	got := decodeBody[EstimateResult](t, postJSON(t, srv.URL+"/v1/estimate", homog))
	got.Scenario = est.Scenario // the label echoes the cluster phrasing
	if got != est {
		t.Fatalf("homogeneous static cluster estimate %+v, want the plain query's %+v", got, est)
	}
	// On-demand estimates skip the revocation term entirely.
	od := strings.Replace(body, "transient", "on-demand", 1)
	est2 := decodeBody[EstimateResult](t, postJSON(t, srv.URL+"/v1/estimate", od))
	if est2.ExpectedRevocations != 0 {
		t.Fatalf("on-demand estimate has revocations: %+v", est2)
	}
	if est2.CostUSD <= est.CostUSD {
		t.Fatalf("on-demand (%.2f) should cost more than transient (%.2f)", est2.CostUSD, est.CostUSD)
	}
}
