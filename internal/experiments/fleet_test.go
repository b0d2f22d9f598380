package experiments

import (
	"testing"

	"repro/internal/fleet"
)

// TestFleetExperimentRegistered keeps the extra out of "all" (whose
// golden pins the paper artifacts only) while staying reachable by id.
func TestFleetExperimentRegistered(t *testing.T) {
	if _, ok := ByID("fleet"); !ok {
		t.Fatal("fleet experiment not reachable by id")
	}
	for _, r := range All() {
		if r.ID == "fleet" {
			t.Fatal("fleet must stay outside \"all\" — the golden pins the paper's artifact set")
		}
	}
}

// TestFleetExperimentIsWorkerCountInvariant is the determinism
// acceptance: the full fleet scheduler comparison renders byte-
// identically at -parallel 1 and 8, like every other campaign.
func TestFleetExperimentIsWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet campaign in -short mode")
	}
	r, _ := ByID("fleet")
	render := func(workers int) string {
		res, err := r.RunWorkers(99, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	want := render(1)
	if got := render(8); got != want {
		t.Fatal("fleet experiment output depends on worker count")
	}
}

// TestFleetRegimesShareWorkloadAcrossSchedulers pins the comparison's
// fairness contract: within one (regime, replication) cell, every
// scheduler faces the identical job stream.
func TestFleetRegimesShareWorkloadAcrossSchedulers(t *testing.T) {
	r, _ := ByID("fleet")
	plan := r.Plan(7)
	// Two units of the same regime and rep but different schedulers
	// must carry configs whose workload seeds match; probe via the
	// unit keys (regime/scheduler/rep encoding).
	if len(plan.Units) != len(fleetRegimes())*3*fleetReplications {
		t.Fatalf("fleet plan has %d units, want %d", len(plan.Units), len(fleetRegimes())*3*fleetReplications)
	}
	// The config construction itself is what the fairness rests on;
	// reproduce it for two schedulers of one cell and compare streams.
	wseed := int64(12345)
	spec := fleetWorkload(fleet.ArrivalPoisson)
	cfgA := fleet.Config{Workload: spec, Scheduler: "fifo", WorkloadSeed: wseed}
	cfgB := fleet.Config{Workload: spec, Scheduler: "deadline-aware", WorkloadSeed: wseed}
	if cfgA.Key() == cfgB.Key() {
		t.Fatal("scheduler must key fleets apart")
	}
	a, err := fleet.Run(fleet.Config{Workload: fleet.WorkloadSpec{Jobs: 3, RatePerHour: 6, StepsPerWorker: 200}, WorkloadSeed: wseed}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.Run(fleet.Config{Workload: fleet.WorkloadSpec{Jobs: 3, RatePerHour: 6, StepsPerWorker: 200}, Scheduler: "cost-greedy", WorkloadSeed: wseed}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].ArrivalHours != b.Jobs[i].ArrivalHours || a.Jobs[i].Label != b.Jobs[i].Label {
			t.Fatalf("job %d differs across schedulers sharing a workload seed", i)
		}
	}
}
