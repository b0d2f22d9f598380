package planner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// fakeFleet replaces the real fleet simulation with a cheap pure
// function of (config key, seed), counting invocations — the probe for
// "how many fleet simulations actually ran". Given a recorder, it
// records a canned three-event job timeline.
func fakeFleet(runs *atomic.Int64) func(cfg fleet.Config, seed int64, trace *obs.Recorder) (*fleet.Result, error) {
	return func(cfg fleet.Config, seed int64, trace *obs.Recorder) (*fleet.Result, error) {
		runs.Add(1)
		job0 := trace.Scoped("job0")
		job0.Record(obs.Event{T: 0, Kind: "job-arrive"})
		job0.Record(obs.Event{T: 5, Kind: "job-place"})
		job0.Record(obs.Event{T: 90, Kind: "job-done"})
		jobs := make([]fleet.JobResult, cfg.Workload.Jobs)
		for i := range jobs {
			jobs[i] = fleet.JobResult{ID: i, Done: true, DeadlineMet: true, CostUSD: float64(seed%97) + float64(i)}
		}
		return &fleet.Result{
			Scheduler:     cfg.Key(), // echo the identity for assertions
			Jobs:          jobs,
			Completed:     len(jobs),
			MakespanHours: float64(seed % 97),
		}, nil
	}
}

func fleetQueryJSON(scheduler string, jobs int, seed int64) string {
	return fmt.Sprintf(`{"scheduler":%q,"jobs":%d,"rate_per_hour":2,"steps_per_worker":1000,"capacity":{"us-central1/K80":2},"seed":%d}`,
		scheduler, jobs, seed)
}

// readFleetNDJSON parses a /v1/fleet response: job lines then exactly
// one summary trailer.
func readFleetNDJSON(t *testing.T, resp *http.Response) ([]fleet.JobResult, FleetSummary) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var jobs []fleet.JobResult
	var summary *FleetSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if summary != nil {
			t.Fatal("lines after the summary trailer")
		}
		var item FleetItem
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case item.Job != nil:
			jobs = append(jobs, *item.Job)
		case item.Summary != nil:
			summary = item.Summary
		default:
			t.Fatalf("line is neither job nor summary: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("no summary trailer")
	}
	return jobs, *summary
}

// TestHTTPFleetRepeatQueryIsServedFromCache pins the acceptance
// property: a repeated /v1/fleet query costs zero additional
// simulations — the whole fleet result is one cache line keyed by the
// canonical config key plus seed.
func TestHTTPFleetRepeatQueryIsServedFromCache(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	defer p.Close()
	var runs atomic.Int64
	p.runFleet = fakeFleet(&runs)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const jobs = 5
	first, firstSummary := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("fifo", jobs, 42)))
	if len(first) != jobs {
		t.Fatalf("first query streamed %d job lines, want %d", len(first), jobs)
	}
	if firstSummary.Cached {
		t.Fatal("first query reported cached")
	}
	if runs.Load() != 1 {
		t.Fatalf("first query ran %d simulations, want 1", runs.Load())
	}

	second, secondSummary := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("fifo", jobs, 42)))
	if runs.Load() != 1 {
		t.Fatalf("repeat query re-simulated: %d runs", runs.Load())
	}
	if !secondSummary.Cached {
		t.Fatal("repeat query not marked cached")
	}
	if len(second) != len(first) {
		t.Fatalf("repeat query streamed %d lines, want %d", len(second), len(first))
	}

	// Spelling the defaults explicitly is the same canonical key —
	// still no new simulation.
	explicit := `{"scheduler":"fifo","jobs":5,"arrival":"poisson","rate_per_hour":2,"steps_per_worker":1000,"checkpoint_interval":1000,"capacity":{"us-central1/K80":2},"horizon_hours":168,"seed":42}`
	_, expSummary := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", explicit))
	if runs.Load() != 1 {
		t.Fatalf("canonically-equal query re-simulated: %d runs", runs.Load())
	}
	if !expSummary.Cached {
		t.Fatal("canonically-equal query not marked cached")
	}

	// A different scheduler, seed, or capacity is a different key.
	readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("cost-greedy", jobs, 42)))
	readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("fifo", jobs, 43)))
	if runs.Load() != 3 {
		t.Fatalf("distinct queries ran %d simulations, want 3", runs.Load())
	}
}

// TestHTTPFleetConcurrentRequests drives many concurrent /v1/fleet
// requests — identical and distinct — through the shared pool under
// the race detector: the planner's cache, singleflight, and pool
// accounting must stay coherent, and identical requests must coalesce
// to at most one simulation per distinct key.
func TestHTTPFleetConcurrentRequests(t *testing.T) {
	p := New(Config{Workers: 4, QueueDepth: 8, CacheSize: 64})
	defer p.Close()
	var runs atomic.Int64
	p.runFleet = fakeFleet(&runs)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	const callers = 24
	const distinct = 4 // seeds 0..3
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fleetQueryJSON("deadline-aware", 3, int64(c%distinct))
			resp, err := http.Post(srv.URL+"/v1/fleet", "application/json", strings.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("caller %d: status %d", c, resp.StatusCode)
				return
			}
			jobLines, summaries := 0, 0
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var item FleetItem
				if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &item); err != nil {
					errs[c] = fmt.Errorf("caller %d: %v", c, err)
					return
				}
				switch {
				case item.Job != nil:
					jobLines++
				case item.Summary != nil:
					summaries++
				}
			}
			if err := sc.Err(); err != nil {
				errs[c] = err
				return
			}
			if jobLines != 3 || summaries != 1 {
				errs[c] = fmt.Errorf("caller %d: %d job lines, %d summaries", c, jobLines, summaries)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := runs.Load(); n != distinct {
		t.Fatalf("%d simulations ran for %d distinct keys", n, distinct)
	}
	st := p.Stats()
	if st.Misses != distinct {
		t.Fatalf("stats misses = %d, want %d", st.Misses, distinct)
	}
	if st.Hits+st.Coalesced != callers-distinct {
		t.Fatalf("hits %d + coalesced %d must cover the other %d callers", st.Hits, st.Coalesced, callers-distinct)
	}
}

// TestHTTPFleetPredictiveIsItsOwnCacheLine pins the newest policy's
// cache identity end to end: every registered scheduler (predictive
// included) occupies a distinct config key, /v1/catalog advertises it,
// /v1/fleet accepts it, a repeat query is a cache hit, and a sibling
// scheduler's query never shares its line.
func TestHTTPFleetPredictiveIsItsOwnCacheLine(t *testing.T) {
	// Key-level: the sched= axis separates every registered policy.
	base := fleet.Config{Workload: fleet.WorkloadSpec{Jobs: 3, RatePerHour: 2, StepsPerWorker: 100}}
	keys := map[string]string{}
	for _, sched := range fleet.SchedulerNames() {
		cfg := base
		cfg.Scheduler = sched
		if prev, dup := keys[cfg.Key()]; dup {
			t.Fatalf("schedulers %q and %q share cache key %q", prev, sched, cfg.Key())
		}
		keys[cfg.Key()] = sched
	}
	pred := base
	pred.Scheduler = "predictive"
	if !strings.Contains(pred.Key(), "|sched=predictive|") {
		t.Fatalf("predictive key does not embed its scheduler axis: %q", pred.Key())
	}

	p := New(Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	defer p.Close()
	var runs atomic.Int64
	p.runFleet = fakeFleet(&runs)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// The catalog must advertise the policy /v1/fleet accepts.
	resp, err := http.Get(srv.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat Catalog
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	advertised := false
	for _, s := range cat.Schedulers {
		advertised = advertised || s == "predictive"
	}
	if !advertised {
		t.Fatalf("catalog schedulers %v omit predictive", cat.Schedulers)
	}

	readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("predictive", 4, 42)))
	if runs.Load() != 1 {
		t.Fatalf("first predictive query ran %d simulations, want 1", runs.Load())
	}
	_, again := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("predictive", 4, 42)))
	if runs.Load() != 1 || !again.Cached {
		t.Fatalf("repeat predictive query re-simulated (runs=%d, cached=%v)", runs.Load(), again.Cached)
	}
	readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", fleetQueryJSON("deadline-aware", 4, 42)))
	if runs.Load() != 2 {
		t.Fatalf("sibling scheduler hit predictive's cache line (runs=%d)", runs.Load())
	}
}

// TestHTTPFleetValidation maps bad queries to 400s before any
// simulation is dispatched.
func TestHTTPFleetValidation(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 8})
	defer p.Close()
	var runs atomic.Int64
	p.runFleet = fakeFleet(&runs)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	bad := []string{
		`{"jobs":0,"rate_per_hour":2,"steps_per_worker":1000}`,
		`{"jobs":3,"rate_per_hour":0,"steps_per_worker":1000}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":0}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"scheduler":"nope"}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"arrival":"fractal"}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"rev_model":"nope"}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"capacity":{"us-central1":2}}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"capacity":{"us-central1/K80":0}}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"horizon_hours":-4}`,
		`{"jobs":3,"rate_per_hour":2,"steps_per_worker":100,"checkpoint_interval":-1}`,
		`{"jobs":9999,"rate_per_hour":2,"steps_per_worker":100}`,
	}
	for i, body := range bad {
		resp := postJSON(t, srv.URL+"/v1/fleet", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("invalid queries dispatched %d simulations", runs.Load())
	}
}

// TestHTTPRealFleetRun exercises the full stack once, without stubs: a
// tiny fleet through HTTP, then the same query again as a cache hit —
// the outcome numbers must match line for line.
func TestHTTPRealFleetRun(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := `{"scheduler":"deadline-aware","jobs":3,"rate_per_hour":6,"steps_per_worker":500,"capacity":{"us-central1/K80":4,"us-central1/P100":4},"seed":11}`
	jobs, summary := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", body))
	if len(jobs) != 3 {
		t.Fatalf("streamed %d jobs, want 3", len(jobs))
	}
	if summary.Completed == 0 {
		t.Fatal("no jobs completed in a week-long horizon")
	}
	if summary.TotalCostUSD <= 0 {
		t.Fatal("fleet ran for free")
	}
	again, againSummary := readFleetNDJSON(t, postJSON(t, srv.URL+"/v1/fleet", body))
	if !againSummary.Cached {
		t.Fatal("repeat real query not cached")
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("cached job %d differs: %+v vs %+v", i, jobs[i], again[i])
		}
	}
}

// TestFleetDirectAPIMatchesKeyedSeedDerivation pins the seed contract:
// the planner hands the campaign-derived unit seed to fleet.Run, so
// equal cache keys mean equal simulations even across planner
// instances.
func TestFleetDirectAPIMatchesKeyedSeedDerivation(t *testing.T) {
	p1 := New(Config{Workers: 1, QueueDepth: 2, CacheSize: 8})
	defer p1.Close()
	p2 := New(Config{Workers: 2, QueueDepth: 2, CacheSize: 8})
	defer p2.Close()
	q := FleetQuery{Jobs: 2, RatePerHour: 4, StepsPerWorker: 300, Seed: 9}
	collect := func(p *Planner) []FleetItem {
		var items []FleetItem
		if err := p.Fleet(context.Background(), q, func(it FleetItem) error {
			items = append(items, it)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return items
	}
	a, b := collect(p1), collect(p2)
	if len(a) != len(b) {
		t.Fatalf("item counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		aj, _ := json.Marshal(a[i])
		bj, _ := json.Marshal(b[i])
		if !bytes.Equal(aj, bj) {
			t.Fatalf("item %d differs across planners:\n%s\n%s", i, aj, bj)
		}
	}
}
