package planner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestMeasureTracedMatchesUntraced runs the real simulation both ways
// on a small scenario: the traced outcome must carry events and agree
// with the untraced outcome number for number — tracing may not
// perturb the simulation, and the traced unit derives the same seed.
func TestMeasureTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()

	q := ScenarioQuery{
		Model: "ResNet-15", GPU: "K80", Region: "us-central1", Tier: "on-demand",
		Workers: 1, TargetSteps: 300, Seed: 11,
	}
	plain, err := p.Measure(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	q.Trace = true
	traced, err := p.Measure(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("traced outcome has no events")
	}
	if plain.Trace != nil {
		t.Fatal("untraced outcome has a trace")
	}
	if traced.TrainingHours != plain.TrainingHours ||
		traced.SteadyStepsPerSec != plain.SteadyStepsPerSec ||
		traced.CostUSD != plain.CostUSD ||
		traced.CheckpointCount != plain.CheckpointCount ||
		traced.Revocations != plain.Revocations {
		t.Fatalf("traced outcome diverged from untraced:\ntraced:   %+v\nuntraced: %+v", traced, plain)
	}
	// Traced and untraced results occupy distinct cache lines; a
	// repeat of each is a hit.
	if st := p.Stats(); st.CacheEntries != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 entries and 2 misses", st)
	}
	again, err := p.Measure(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || len(again.Trace) != len(traced.Trace) {
		t.Fatalf("repeated traced query not served from cache with its trace (cached=%v, %d events)", again.Cached, len(again.Trace))
	}
}

// TestHTTPFleetTraceLines checks the traced fleet stream shape: job
// lines, then one line per event, then the summary — and that an
// untraced query of the same config is cached independently.
func TestHTTPFleetTraceLines(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var runs atomic.Int64
	p.runFleet = fakeFleet(&runs)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"jobs":2,"rate_per_hour":2,"steps_per_worker":1000,"capacity":{"us-central1/K80":2},"seed":3,"trace":true}`
	resp := postJSON(t, srv.URL+"/v1/fleet", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet status = %d", resp.StatusCode)
	}
	var jobs, traces, summaries int
	var lastKind string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var it FleetItem
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case it.Job != nil:
			if lastKind != "" && lastKind != "job" {
				t.Fatalf("job line after a %s line", lastKind)
			}
			lastKind = "job"
			jobs++
		case it.Trace != nil:
			if lastKind != "job" && lastKind != "trace" {
				t.Fatalf("trace line after a %s line", lastKind)
			}
			lastKind = "trace"
			traces++
		case it.Summary != nil:
			lastKind = "summary"
			summaries++
		default:
			t.Fatalf("empty fleet item %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if jobs != 2 || traces != 3 || summaries != 1 {
		t.Fatalf("stream shape = %d jobs, %d traces, %d summaries; want 2/3/1", jobs, traces, summaries)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d fleet simulations ran, want 1", n)
	}
}

// expositionLine matches the Prometheus text format 0.0.4 grammar the
// obs tests pin: HELP/TYPE comments or a sample line.
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN))$`)

// TestHTTPMetricsAfterBurst is the acceptance criterion for the
// service plane: after a burst of /v1/measure traffic, GET /metrics
// returns well-formed Prometheus text with the cache, queue, latency,
// and pool-utilization series populated.
func TestHTTPMetricsAfterBurst(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	q := `{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"on-demand","workers":1,"target_steps":100,"seed":9}`
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.URL+"/v1/measure", q)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measure status = %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"pland_cache_hits_total 2",
		"pland_cache_misses_total 1",
		"pland_cache_entries 1",
		"pland_pool_queue_depth ",
		"pland_pool_jobs_total 1",
		"pland_sims_inflight 0",
		`pland_http_request_seconds_bucket{endpoint="measure",le="+Inf"} 3`,
		"pland_http_request_seconds_count{endpoint=\"measure\"} 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestStatsCarriesPoolUtilization pins the enriched /v1/stats fields:
// pool shape from the config and job accounting after one measurement.
func TestStatsCarriesPoolUtilization(t *testing.T) {
	p := New(Config{Workers: 3, QueueDepth: 5, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)

	if _, err := p.Measure(context.Background(), testQuery(4)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PoolWorkers != 3 || st.QueueCapacity != 5 {
		t.Fatalf("pool shape = %d workers / %d queue, want 3/5", st.PoolWorkers, st.QueueCapacity)
	}
	if st.PoolJobsRun != 1 || st.InFlight != 0 || st.Rejections != 0 {
		t.Fatalf("stats = %+v, want 1 job run, nothing in flight, no rejections", st)
	}
	if st.PoolBusySeconds < 0 || st.PoolWaitSeconds < 0 {
		t.Fatalf("negative pool seconds: %+v", st)
	}
}

// TestRejectionCounted pins the rejection counter: a query whose
// context is canceled before its simulation can run counts as one
// rejection.
func TestRejectionCounted(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 16})
	defer p.Close()
	p.measure = func(sc experiments.Scenario, steps, ic, seed int64, trace *obs.Recorder) (experiments.ScenarioOutcome, error) {
		return experiments.ScenarioOutcome{Scenario: sc}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Measure(ctx, testQuery(1)); err == nil {
		t.Fatal("canceled query succeeded")
	}
	if got := p.Stats().Rejections; got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
}
