package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

var testCatalog = catalog{
	Models:  []string{"ResNet-15", "ResNet-32"},
	GPUs:    []string{"K80", "P100", "V100"},
	Regions: []string{"us-east1", "us-central1", "us-west1"},
	Tiers:   []string{"on-demand", "transient"},
}

// testOffers sells V100 only in us-central1.
func testOffers(region, gpu string) bool { return gpu != "V100" || region == "us-central1" }

var smallMix = mix{Sessions: 12, GridSessions: 4}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := generate(testCatalog, testOffers, 7, 0, smallMix)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(testCatalog, testOffers, 7, 0, smallMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sessions")
	}
	c, _ := generate(testCatalog, testOffers, 8, 0, smallMix)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same sessions")
	}
}

func TestGenerateSessions(t *testing.T) {
	sessions, err := generate(testCatalog, testOffers, 3, 0, smallMix)
	if err != nil {
		t.Fatal(err)
	}
	n := smallMix.Sessions
	if len(sessions) != 2*n {
		t.Fatalf("%d sessions, want %d (each sent twice)", len(sessions), 2*n)
	}
	// The second half repeats the first, in another order.
	seen := map[string]int{}
	for i, s := range sessions {
		k := fmt.Sprint(s)
		if i < n {
			seen[k]++
		} else {
			seen[k]--
		}
	}
	for _, c := range seen {
		if c != 0 {
			t.Fatal("the repeated sessions are not the first sessions again")
		}
	}
	if reflect.DeepEqual(sessions[:n], sessions[n:]) {
		t.Error("the repeats keep the first order")
	}

	keys := map[string]bool{}
	grids := 0
	for _, s := range sessions[:n] {
		var scan []scenarioQuery
		validated := false
		for i, r := range s {
			switch r.Class {
			case classEstimate, classMeasure:
				var q scenarioQuery
				if err := json.Unmarshal(r.Body, &q); err != nil {
					t.Fatal(err)
				}
				if !testOffers(q.Region, q.GPU) || !contains(testCatalog.Models, q.Model) || !contains(testCatalog.Tiers, q.Tier) {
					t.Errorf("%s draws an unoffered or uncatalogued cell: %s", r.Class, r.Body)
				}
				if r.Class == classEstimate {
					if validated {
						t.Errorf("estimate after the validations: %s", r.Body)
					}
					scan = append(scan, q)
				} else {
					validated = true
					keys[string(r.Body)] = true
				}
			case classGrid:
				grids++
				if i != len(s)-1 {
					t.Errorf("grid is not the session's last request")
				}
				var q cheapestQuery
				if err := json.Unmarshal(r.Body, &q); err != nil {
					t.Fatal(err)
				}
				if len(q.GPUs) != 1 || len(q.Regions) != 1 || !testOffers(q.Regions[0], q.GPUs[0]) {
					t.Errorf("grid is not one offered cell: %s", r.Body)
				}
			}
		}
		// The scan is every offered GPU of one region × sizes × tiers.
		offered := 0
		for _, g := range testCatalog.GPUs {
			if testOffers(scan[0].Region, g) {
				offered++
			}
		}
		if want := offered * len(scanSizes) * len(testCatalog.Tiers); len(scan) != want {
			t.Errorf("scan of %s has %d estimates, want %d", scan[0].Region, len(scan), want)
		}
	}
	if len(keys) != validations*n {
		t.Errorf("%d distinct measure keys, want %d", len(keys), validations*n)
	}
	if grids != smallMix.GridSessions {
		t.Errorf("%d grid sessions, want %d", grids, smallMix.GridSessions)
	}
}

// A later pass sends the same requests in the same order; only the
// measure and grid seeds change, and every one of them is new.
func TestGeneratePassesDifferOnlyInSeeds(t *testing.T) {
	first, err := generate(testCatalog, testOffers, 5, 0, smallMix)
	if err != nil {
		t.Fatal(err)
	}
	later, err := generate(testCatalog, testOffers, 5, 3, smallMix)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	for i := range first {
		if len(first[i]) != len(later[i]) {
			t.Fatalf("session %d has %d requests in pass 0, %d in pass 3", i, len(first[i]), len(later[i]))
		}
		for j, a := range first[i] {
			b := later[i][j]
			var qa, qb map[string]any
			if err := json.Unmarshal(a.Body, &qa); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b.Body, &qb); err != nil {
				t.Fatal(err)
			}
			sa, _ := qa["seed"].(float64)
			sb, _ := qb["seed"].(float64)
			if a.Class != classEstimate && i < smallMix.Sessions {
				if sa == sb || seeds[int64(sa)] || seeds[int64(sb)] {
					t.Errorf("session %d request %d: seed %g reused", i, j, sb)
				}
				seeds[int64(sa)], seeds[int64(sb)] = true, true
			}
			delete(qa, "seed")
			delete(qb, "seed")
			if a.Class != b.Class || a.Path != b.Path || !reflect.DeepEqual(qa, qb) {
				t.Errorf("session %d request %d differs beyond its seed: %s vs %s", i, j, a.Body, b.Body)
			}
		}
	}
	if _, err := generate(testCatalog, testOffers, 5, maxPasses, smallMix); err == nil {
		t.Error("a pass past maxPasses must be an error")
	}
}

func TestSteadyMixMeetsTailFloors(t *testing.T) {
	m := steadyMix
	minEstimates := 2 * m.Sessions * len(scanSizes) // one GPU, one tier
	if minEstimates < minSamples(0.99) || validations*m.Sessions < minSamples(0.99) || 2*m.GridSessions < minSamples(0.9) {
		t.Errorf("steady mix %+v cannot meet the tail floors", m)
	}
}

func TestSetupRequestsCoverEveryOfferedCorner(t *testing.T) {
	reqs, err := setupRequests(testCatalog, testOffers)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(testCatalog.corners(testOffers)); len(reqs) != want || want != 7 {
		t.Errorf("%d setup requests for %d corners", len(reqs), want)
	}
	if _, err := setupRequests(testCatalog, func(string, string) bool { return false }); err == nil {
		t.Error("a catalog with no offered corner must be an error")
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
