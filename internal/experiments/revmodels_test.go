package experiments

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
)

// TestRevModelsPlanCoversEveryRegime checks the experiment's structure
// without paying for its sessions: one unit per (regime, cell,
// replication), every shipped builtin plus the trace replay entered,
// and unit keys distinct.
func TestRevModelsPlanCoversEveryRegime(t *testing.T) {
	r, _ := ByID("revmodels")
	plan := r.Plan(3)
	cells := len(revModelsSpec().Scenarios())
	regimes := []string{"table5", "weibull", "diurnal", "replay"}
	if want := len(regimes) * cells * revModelsReplications; len(plan.Units) != want {
		t.Fatalf("plan has %d units, want %d", len(plan.Units), want)
	}
	seen := make(map[string]bool)
	counts := make(map[string]int)
	for _, u := range plan.Units {
		if seen[u.Key] {
			t.Fatalf("duplicate unit key %q", u.Key)
		}
		seen[u.Key] = true
		for _, name := range regimes {
			if strings.Contains(u.Key, "rev="+name+"/") {
				counts[name]++
			}
		}
	}
	for _, name := range regimes {
		if counts[name] != cells*revModelsReplications {
			t.Errorf("regime %s has %d units, want %d (keys: %v)", name, counts[name], cells*revModelsReplications, seen)
		}
	}
}

// TestRevModelsRender pins the aggregation: replications of one
// (regime, cell) collapse into a single averaged row.
func TestRevModelsRender(t *testing.T) {
	sc := Scenario{Model: model.ResNet15(), GPU: model.K80, Region: cloud.USWest1,
		Tier: cloud.Transient, RevModel: "weibull", Workers: 4}
	res := &RevModelsResult{
		Spec:         revModelsSpec(),
		Replications: 2,
		Entries: []revModelsEntry{
			{RevModel: "weibull", Outcome: ScenarioOutcome{Scenario: sc, TrainingSeconds: 2 * 3600, CostUSD: 10, Revocations: 1, Replacements: 1}},
			{RevModel: "weibull", Outcome: ScenarioOutcome{Scenario: sc, TrainingSeconds: 4 * 3600, CostUSD: 30, Revocations: 3, Replacements: 3}},
		},
	}
	out := res.String()
	if n := strings.Count(out, "weibull"); n != 2 { // one row + one note
		t.Fatalf("render collapsed %d weibull mentions, want 2:\n%s", n, out)
	}
	for _, want := range []string{"3.00", "20.00", "2.0", "4×K80 us-west1 transient"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
