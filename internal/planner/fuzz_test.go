package planner

import (
	"encoding/json"
	"testing"

	"repro/internal/cloud"
	"repro/internal/experiments"
)

// FuzzScenarioQuery throws arbitrary request bodies at the validation
// every single-scenario endpoint runs before dispatching a simulation.
// It must never panic, and anything it accepts must stay within the
// per-scenario worker limit — the bound that keeps one query from
// asking the pool for an unbounded cluster.
func FuzzScenarioQuery(f *testing.F) {
	for _, seed := range []string{
		// Cluster counts that overflow int: the merged K80 groups
		// vanish, and the three groups' total wraps around to one.
		`{"model":"ResNet-15","cluster":"9223372036854775807xK80+1xK80","region":"us-central1","tier":"transient","target_steps":10}`,
		`{"model":"ResNet-15","cluster":"9223372036854775807xK80+9223372036854775807xP100+3xV100","region":"us-central1","tier":"transient","target_steps":10}`,
		`{"model":"ResNet-15","gpu":"K80","region":"us-central1","tier":"on-demand","workers":4,"target_steps":10}`,
		`{"model":"ResNet-15","cluster":"2xK80+1xV100","region":"us-central1","tier":"transient","elastic":"surge","rev_model":"weibull","target_steps":10}`,
		`{"model":"ResNet-15","gpu":"K80","region":"us-west1","tier":"transient","workers":1025,"provider":"aws","target_steps":10}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q ScenarioQuery
		if json.Unmarshal(body, &q) != nil {
			return
		}
		sc, _, _, err := q.scenario()
		if err != nil {
			return
		}
		if sc.Workers <= 0 || sc.Workers > maxWorkersPerScenario {
			t.Fatalf("scenario() accepted %d workers (limit %d) from %s", sc.Workers, maxWorkersPerScenario, body)
		}
		if n := sc.ClusterSpec().TotalWorkers(); n != sc.Workers {
			t.Fatalf("scenario() cluster %v holds %d workers, want %d", sc.ClusterSpec(), n, sc.Workers)
		}
	})
}

// canonicalScenario is what a scenario means once every phrasing and
// default is resolved; Scenario.Key must encode exactly this.
type canonicalScenario struct {
	model, cluster         string
	region                 cloud.Region
	tier                   cloud.Tier
	elastic, rev, provider string
}

func canonicalOf(sc experiments.Scenario) canonicalScenario {
	return canonicalScenario{sc.Model.Name, sc.ClusterSpec().String(), sc.Region, sc.Tier,
		sc.ElasticName(), sc.RevModelName(), sc.ProviderName()}
}

// FuzzScenarioKey fuzzes the injectivity of the planner's cache
// identity: two accepted queries share a Scenario.Key exactly when they
// name the same canonical scenario, whichever phrasing they used
// (gpu/workers or cluster, defaults implicit or explicit).
func FuzzScenarioKey(f *testing.F) {
	const base = `"model":"ResNet-15","region":"us-central1","tier":"transient","target_steps":10`
	for _, seed := range []struct {
		a, b string
		same bool
	}{
		// The two worker phrasings of one homogeneous shape.
		{`{` + base + `,"gpu":"K80","workers":4}`, `{` + base + `,"cluster":"4xK80"}`, true},
		{`{` + base + `,"cluster":"2xK80+2xK80"}`, `{` + base + `,"cluster":"4xK80"}`, true},
		{`{` + base + `,"cluster":"2xK80+1xV100"}`, `{` + base + `,"cluster":"1xV100+2xK80"}`, true},
		// Defaults left implicit or spelled out.
		{`{` + base + `,"gpu":"K80","workers":2}`, `{` + base + `,"gpu":"K80","workers":2,"elastic":"static"}`, true},
		{`{` + base + `,"gpu":"K80","workers":2}`, `{` + base + `,"gpu":"K80","workers":2,"provider":"gce"}`, true},
		{`{` + base + `,"gpu":"K80","workers":2}`, `{` + base + `,"gpu":"K80","workers":2,"rev_model":"table5"}`, true},
		{`{` + base + `,"gpu":"K80","workers":2,"provider":"aws"}`, `{` + base + `,"gpu":"K80","workers":2,"provider":"aws","rev_model":"calm-weibull"}`, true},
		// Shape, regime, market and policy each split the key.
		{`{` + base + `,"gpu":"K80","workers":4}`, `{` + base + `,"cluster":"3xK80+1xV100"}`, false},
		{`{` + base + `,"gpu":"K80","workers":2}`, `{` + base + `,"gpu":"K80","workers":2,"rev_model":"weibull"}`, false},
		{`{` + base + `,"gpu":"K80","workers":2,"provider":"aws"}`, `{` + base + `,"gpu":"K80","workers":2,"rev_model":"calm-weibull"}`, false},
		{`{` + base + `,"gpu":"K80","workers":2,"elastic":"surge"}`, `{` + base + `,"gpu":"K80","workers":2,"elastic":"elastic"}`, false},
	} {
		sa, sb := mustScenario(f, seed.a), mustScenario(f, seed.b)
		if (sa.Key() == sb.Key()) != seed.same {
			f.Fatalf("seed keys %q and %q: equal=%v, want %v", sa.Key(), sb.Key(), !seed.same, seed.same)
		}
		f.Add([]byte(seed.a), []byte(seed.b))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var qa, qb ScenarioQuery
		if json.Unmarshal(a, &qa) != nil || json.Unmarshal(b, &qb) != nil {
			return
		}
		sa, _, _, err := qa.scenario()
		if err != nil {
			return
		}
		sb, _, _, err := qb.scenario()
		if err != nil {
			return
		}
		ca, cb := canonicalOf(sa), canonicalOf(sb)
		if (sa.Key() == sb.Key()) != (ca == cb) {
			t.Fatalf("keys %q and %q disagree with canonical scenarios %+v and %+v", sa.Key(), sb.Key(), ca, cb)
		}
	})
}

// mustScenario validates a fuzz seed body, so no seed is skipped as
// invalid.
func mustScenario(f *testing.F, body string) experiments.Scenario {
	f.Helper()
	var q ScenarioQuery
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		f.Fatalf("seed %s: %v", body, err)
	}
	sc, _, _, err := q.scenario()
	if err != nil {
		f.Fatalf("seed %s: %v", body, err)
	}
	return sc
}
