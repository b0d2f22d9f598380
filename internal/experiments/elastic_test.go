package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// TestElasticExperimentRegistered keeps the extra reachable by id but
// out of "all", whose golden pins the paper artifacts only.
func TestElasticExperimentRegistered(t *testing.T) {
	if _, ok := ByID("elastic"); !ok {
		t.Fatal("elastic experiment not reachable by id")
	}
	for _, r := range All() {
		if r.ID == "elastic" {
			t.Fatal("elastic must stay outside \"all\" — the golden pins the paper's artifact set")
		}
	}
}

// TestElasticBeatsStaticAtGoldenSeed is the experiment's headline
// claim, pinned at the golden seed: with the Fig. 9 diurnal prior as
// forecast, the elastic policy's mean score beats static's in at least
// one revocation regime — and not in all of them, because the prior is
// wrong about weibull's hour-free lifetimes. If a change to the risk
// signal, the resize policy, or the sync-batch kernel breaks this, the
// claim in the docs is stale and the change needs a closer look.
func TestElasticBeatsStaticAtGoldenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full elastic campaign in -short mode")
	}
	r, ok := ByID("elastic")
	if !ok {
		t.Fatal("elastic experiment not registered")
	}
	res, err := r.RunWorkers(42, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	er, ok := res.(*ElasticResult)
	if !ok {
		t.Fatalf("elastic experiment returned %T", res)
	}
	wins := er.RegimesWhereElasticBeats()
	if len(wins) == 0 {
		t.Fatalf("elastic beats static in no regime at seed 42:\n%s", er)
	}
	if len(wins) == len(elasticRegimes()) {
		t.Fatalf("elastic beats static in every regime at seed 42 — the weibull control regime should not reward the diurnal prior:\n%s", er)
	}
	found := false
	for _, w := range wins {
		if w == "table5" {
			found = true
		}
	}
	if !found {
		t.Fatalf("elastic wins %v at seed 42, want the table5 regime among them:\n%s", wins, er)
	}
	if !strings.Contains(er.String(), "elastic beats static (mean score) under:") {
		t.Error("render should surface the headline note")
	}
}

// TestElasticCellsShareSeedsAcrossPolicies pins the comparison's
// fairness contract: within one (regime, replication) cell every
// policy must face identical cloud randomness, so the plan declares
// one unit per policy per cell, grouped in declaration order.
func TestElasticCellsShareSeedsAcrossPolicies(t *testing.T) {
	r, _ := ByID("elastic")
	plan := r.Plan(7)
	policies := 3 // static, elastic, surge
	want := len(elasticRegimes()) * elasticReplications * policies
	if len(plan.Units) != want {
		t.Fatalf("elastic plan has %d units, want %d", len(plan.Units), want)
	}
	// Unit keys encode regime/policy/rep; every policy must appear once
	// per (regime, rep) cell.
	seen := make(map[string]int)
	for _, u := range plan.Units {
		parts := strings.Split(u.Key, "/")
		if len(parts) != 4 || parts[0] != "elastic" {
			t.Fatalf("unexpected unit key %q", u.Key)
		}
		seen[parts[1]+"/"+parts[3]]++
	}
	for cell, n := range seen {
		if n != policies {
			t.Errorf("cell %s has %d policy units, want %d", cell, n, policies)
		}
	}
}
