package planner

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestClusterQuerySharesCacheLineWithPlainQuery pins the cache
// coherence of the cluster axis: a homogeneous cluster query is the
// same measurement as the equivalent gpu/workers query, so the second
// phrasing must be a cache hit, not a second simulation. A mixed
// cluster and a non-static elastic policy are different worlds and
// must each simulate once.
func TestClusterQuerySharesCacheLineWithPlainQuery(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	ctx := context.Background()

	plain := ScenarioQuery{
		Model: "ResNet-15", Region: "us-west1", Tier: "transient",
		GPU: "P100", Workers: 4, TargetSteps: 100, Seed: 7,
	}
	if _, err := p.Measure(ctx, plain); err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 1 {
		t.Fatalf("plain query ran %d simulations, want 1", sims.Load())
	}

	homog := plain
	homog.GPU, homog.Workers = "", 0
	homog.Cluster = "4xP100"
	out, err := p.Measure(ctx, homog)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 1 {
		t.Fatalf("homogeneous cluster query must hit the plain query's cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}

	mixed := homog
	mixed.Cluster = "2xK80+2xP100"
	out, err = p.Measure(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || sims.Load() != 2 {
		t.Fatalf("mixed cluster query must simulate its own world (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
	// Group order never matters: the reordered spec is the same world.
	reordered := mixed
	reordered.Cluster = "2xP100+2xK80"
	out, err = p.Measure(ctx, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 2 {
		t.Fatalf("reordered cluster groups must share the cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}

	// Explicit "static" is the implicit default; "elastic" keys apart.
	static := plain
	static.Elastic = "static"
	out, err = p.Measure(ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 2 {
		t.Fatalf("explicit static policy must hit the plain query's cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
	elastic := plain
	elastic.Elastic = "elastic"
	out, err = p.Measure(ctx, elastic)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || sims.Load() != 3 {
		t.Fatalf("elastic policy query must simulate its own world (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
}

// TestClusterAndElasticQueryValidation maps malformed cluster and
// elastic phrasings to BadRequestError.
func TestClusterAndElasticQueryValidation(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	base := ScenarioQuery{Model: "ResNet-15", Region: "us-west1", Tier: "transient", TargetSteps: 1}
	bad := map[string]func(q *ScenarioQuery){
		"malformed cluster spec": func(q *ScenarioQuery) { q.Cluster = "P100x4" },
		"zero-count group":       func(q *ScenarioQuery) { q.Cluster = "0xP100" },
		"unknown gpu in cluster": func(q *ScenarioQuery) { q.Cluster = "1xH100" },
		"cluster plus gpu":       func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.GPU = "P100" },
		"cluster plus workers":   func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.Workers = 4 },
		"unoffered cluster cell": func(q *ScenarioQuery) { q.Cluster = "1xK80+1xV100"; q.Region = "us-east1" },
		"unknown elastic policy": func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.Elastic = "no-such-policy" },
	}
	for name, mutate := range bad {
		q := base
		mutate(&q)
		var e *BadRequestError
		if _, err := p.Measure(context.Background(), q); !errors.As(err, &e) {
			t.Errorf("%s: got %v, want BadRequestError", name, err)
		}
	}
}

// TestEstimateAnswersOnlyHomogeneousStaticClusters pins the analytic
// path's scope: Eq. 4 sums independent asynchronous worker speeds, so
// a mixed cluster or a non-static elastic policy — both run the
// synchronous dynamic-batching kernel — is a BadRequestError, while the
// homogeneous cluster phrasing and an explicit "static" policy are the
// plain query and answer with its numbers.
func TestEstimateAnswersOnlyHomogeneousStaticClusters(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	ctx := context.Background()
	plain := ScenarioQuery{
		Model: "ResNet-32", GPU: "K80", Region: "us-central1", Tier: "transient",
		Workers: 3, TargetSteps: 64000, CheckpointInterval: 4000,
	}
	asCluster := func(q *ScenarioQuery, spec string) { q.GPU, q.Workers, q.Cluster = "", 0, spec }
	for name, mutate := range map[string]func(q *ScenarioQuery){
		"mixed cluster":  func(q *ScenarioQuery) { asCluster(q, "2xK80+1xV100") },
		"elastic policy": func(q *ScenarioQuery) { q.Elastic = "elastic" },
		"surge policy":   func(q *ScenarioQuery) { q.Elastic = "surge" },
		"surge cluster":  func(q *ScenarioQuery) { asCluster(q, "3xK80"); q.Elastic = "surge" },
	} {
		q := plain
		mutate(&q)
		var bad *BadRequestError
		if _, err := p.Estimate(ctx, q); !errors.As(err, &bad) ||
			!strings.Contains(err.Error(), "analytic estimates support only") {
			t.Errorf("%s: got %v, want a BadRequestError naming the analytic limitation", name, err)
		}
	}

	if testing.Short() {
		t.Skip("model fitting in -short mode")
	}
	want, err := p.Estimate(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(q *ScenarioQuery){
		"homogeneous cluster": func(q *ScenarioQuery) { asCluster(q, "3xK80") },
		"split groups":        func(q *ScenarioQuery) { asCluster(q, "1xK80+2xK80") },
		"static policy":       func(q *ScenarioQuery) { q.Elastic = "static" },
	} {
		q := plain
		mutate(&q)
		got, err := p.Estimate(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.Scenario = want.Scenario // the label echoes the phrasing
		if got != want {
			t.Errorf("%s: %+v, want the plain query's %+v", name, got, want)
		}
	}
}

// TestHTTPCatalogListsElasticPolicies is the wire-level discovery
// contract: /v1/catalog advertises the membership policies a query's
// elastic field accepts.
func TestHTTPCatalogListsElasticPolicies(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[Catalog](t, resp)
	want := map[string]bool{"static": false, "elastic": false, "surge": false}
	for _, name := range cat.ElasticPolicies {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("catalog elastic_policies missing %q (got %v)", name, cat.ElasticPolicies)
		}
	}
}
