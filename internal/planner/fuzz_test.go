package planner

import (
	"encoding/json"
	"testing"
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
