package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/model"
)

func TestSweepScenarioGridSkipsUnofferedCells(t *testing.T) {
	spec := SweepSpec{
		Model:          model.ResNet15(),
		Sizes:          []int{1, 2},
		GPUs:           []model.GPU{model.K80, model.V100},
		Regions:        []cloud.Region{cloud.USEast1, cloud.USCentral1},
		Tiers:          []cloud.Tier{cloud.Transient},
		StepsPerWorker: 100,
	}
	scenarios := spec.Scenarios()
	// V100 is not offered in us-east1, so that (region, GPU) cell drops
	// out: 2 GPUs × 2 regions × 2 sizes − 2 = 6.
	if len(scenarios) != 6 {
		t.Fatalf("scenarios = %d, want 6", len(scenarios))
	}
	for _, sc := range scenarios {
		if sc.GPU == model.V100 && sc.Region == cloud.USEast1 {
			t.Errorf("grid kept unoffered cell %s", sc.Label())
		}
	}
	// Declaration order is GPU → region → tier → size.
	if scenarios[0].Label() != "1×K80 us-east1 transient" {
		t.Errorf("first scenario = %s", scenarios[0].Label())
	}
}

func TestSweepMeasuresEveryScenario(t *testing.T) {
	spec := SweepSpec{
		Model:              model.ResNet15(),
		Sizes:              []int{1, 2},
		GPUs:               []model.GPU{model.K80},
		Regions:            []cloud.Region{cloud.USCentral1},
		Tiers:              []cloud.Tier{cloud.Transient, cloud.OnDemand},
		StepsPerWorker:     1000,
		CheckpointInterval: 500,
	}
	r := Runner{ID: "sweep-test", Title: "test sweep", declare: spec.declare}
	res, err := r.RunWorkers(21, 4)
	if err != nil {
		t.Fatal(err)
	}
	sw := res.(*SweepResult)
	if len(sw.Outcomes) != 4 {
		t.Fatalf("outcomes = %d, want 4", len(sw.Outcomes))
	}
	for _, o := range sw.Outcomes {
		if o.TrainingSeconds <= 0 || o.SteadySpeed <= 0 || o.CostUSD <= 0 {
			t.Errorf("%s: non-positive measurement %+v", o.Scenario.Label(), o)
		}
		if o.Scenario.Tier == cloud.OnDemand && o.Revocations != 0 {
			t.Errorf("%s: on-demand scenario reported %d revocations", o.Scenario.Label(), o.Revocations)
		}
	}
	out := sw.String()
	for _, want := range []string{"Scenario sweep", "2×K80", "on-demand", "cheapest per step"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if _, ok := sw.Cheapest(); !ok {
		t.Error("Cheapest should resolve on a non-empty sweep")
	}
}

// TestCampaignDeterminism is the tentpole guarantee: a campaign's
// rendered output is byte-identical at one worker and at eight.
func TestCampaignDeterminism(t *testing.T) {
	ids := []string{"table1", "fig7", "ckptseq", "sweep"}
	if !testing.Short() {
		ids = append(ids, "fig9", "fig10")
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			seq, err := r.RunWorkers(42, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := r.RunWorkers(42, 8)
			if err != nil {
				t.Fatal(err)
			}
			if seq.String() != par.String() {
				t.Errorf("output differs between -parallel 1 and -parallel 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.String(), par.String())
			}
		})
	}
}

// TestTableVAndFigure8ShareTheCampaign pins the paper's structure:
// Table V and Fig. 8 are two views of one revocation trace, so for a
// given seed both experiments must render the same campaign.
func TestTableVAndFigure8ShareTheCampaign(t *testing.T) {
	tv := runByID(t, "table5", 33).(*TableVResult)
	f8 := runByID(t, "fig8", 33).(*Figure8Result)
	a, b := tv.Study.TableV(), f8.Study.TableV()
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScenarioKeyIsCanonicalAndGridIndependent(t *testing.T) {
	sc := Scenario{Model: model.ResNet15(), GPU: model.P100, Region: cloud.USWest1, Tier: cloud.Transient, Workers: 4}
	want := "model=ResNet-15|gpu=P100|region=us-west1|tier=transient|workers=4|cluster=4xP100|elastic=static|rev=table5|prov=gce"
	if got := sc.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	// The cluster axis normalizes the same way: an explicit homogeneous
	// spec is the same measurement as the plain GPU/Workers phrasing
	// (one planner cache line), a mixed spec is a different world, and
	// group order inside a spec never matters.
	explicitCluster := sc
	explicitCluster.Cluster = model.HomogeneousCluster(model.P100, 4)
	if explicitCluster.Key() != sc.Key() {
		t.Fatalf("explicit homogeneous cluster keys %q, implicit %q", explicitCluster.Key(), sc.Key())
	}
	mixed := sc
	mixed.Cluster = model.ClusterSpec{{GPU: model.K80, Count: 2}, {GPU: model.P100, Count: 2}}
	if mixed.Key() == sc.Key() {
		t.Fatal("mixed cluster shares a key with the homogeneous scenario")
	}
	reordered := sc
	reordered.Cluster = model.ClusterSpec{{GPU: model.P100, Count: 2}, {GPU: model.K80, Count: 2}}
	if reordered.Key() != mixed.Key() {
		t.Fatalf("group order changes the key: %q vs %q", reordered.Key(), mixed.Key())
	}
	// Same for the elastic axis: implicit and explicit "static" are one
	// measurement, a real policy keys apart.
	explicitStatic := sc
	explicitStatic.Elastic = "static"
	if explicitStatic.Key() != sc.Key() {
		t.Fatalf("explicit static keys %q, implicit %q", explicitStatic.Key(), sc.Key())
	}
	elastic := sc
	elastic.Elastic = "elastic"
	if elastic.Key() == sc.Key() {
		t.Fatal("elastic scenario shares a key with the static one")
	}
	// The implicit default and the explicitly-named default are the
	// same measurement, so they share one canonical key; any other
	// model is a different world and must key apart.
	explicit := sc
	explicit.RevModel = cloud.DefaultLifetimeModelName
	if explicit.Key() != sc.Key() {
		t.Fatalf("explicit default keys %q, implicit %q", explicit.Key(), sc.Key())
	}
	weibull := sc
	weibull.RevModel = "weibull"
	if weibull.Key() == sc.Key() {
		t.Fatal("distinct revocation models share a key")
	}
	// Same canonicalization for the provider axis: implicit gce and
	// explicit gce are one world, any other provider keys apart.
	explicitProv := sc
	explicitProv.Provider = cloud.DefaultProviderName
	if explicitProv.Key() != sc.Key() {
		t.Fatalf("explicit default provider keys %q, implicit %q", explicitProv.Key(), sc.Key())
	}
	aws := sc
	aws.Provider = "aws"
	if aws.Key() == sc.Key() {
		t.Fatal("distinct providers share a key")
	}
	// The same scenario expanded from two differently-shaped grids must
	// share one key: that is what makes the planner cache coherent
	// across arbitrary query grids.
	wide := SweepSpec{Model: model.ResNet15(), Sizes: []int{1, 2, 4}, GPUs: model.AllGPUs(),
		Regions: []cloud.Region{cloud.USWest1}, Tiers: []cloud.Tier{cloud.Transient}}
	narrow := SweepSpec{Model: model.ResNet15(), Sizes: []int{4}, GPUs: []model.GPU{model.P100},
		Regions: []cloud.Region{cloud.USWest1}, Tiers: []cloud.Tier{cloud.Transient}}
	keys := func(spec SweepSpec) map[string]bool {
		m := make(map[string]bool)
		for _, s := range spec.Scenarios() {
			m[s.Key()] = true
		}
		return m
	}
	if !keys(wide)[sc.Key()] || !keys(narrow)[sc.Key()] {
		t.Fatal("identical scenarios from different grids derived different keys")
	}
	// Every cell of a grid keys uniquely.
	if got, want := len(keys(wide)), len(wide.Scenarios()); got != want {
		t.Fatalf("grid of %d scenarios produced %d distinct keys", want, got)
	}
	if got, want := ScenarioKey(sc, 8000, 1000), want+"|steps=8000|ic=1000"; got != want {
		t.Fatalf("ScenarioKey = %q, want %q", got, want)
	}
}

func TestSweepRevModelAxisExpandsGrid(t *testing.T) {
	spec := SweepSpec{
		Model:          model.ResNet15(),
		Sizes:          []int{1},
		GPUs:           []model.GPU{model.K80},
		Regions:        []cloud.Region{cloud.USCentral1},
		Tiers:          []cloud.Tier{cloud.Transient},
		RevModels:      []string{"table5", "weibull", "diurnal"},
		StepsPerWorker: 100,
	}
	scenarios := spec.Scenarios()
	if len(scenarios) != 3 {
		t.Fatalf("scenarios = %d, want one per revocation model", len(scenarios))
	}
	labels := make(map[string]bool)
	keys := make(map[string]bool)
	for _, sc := range scenarios {
		labels[sc.Label()] = true
		keys[sc.Key()] = true
	}
	if len(labels) != 3 || len(keys) != 3 {
		t.Fatalf("revocation models must label and key apart: labels=%v", labels)
	}
	if !labels["1×K80 us-central1 transient rev=weibull"] {
		t.Errorf("missing expected label, got %v", labels)
	}
}

// TestMeasureScenarioHonorsRevModel runs the same placement under two
// revocation regimes: the measurements must come out deterministic per
// model and the unknown-model error must surface, not panic.
func TestMeasureScenarioHonorsRevModel(t *testing.T) {
	if testing.Short() {
		t.Skip("measured sessions in -short mode")
	}
	base := Scenario{Model: model.ResNet15(), GPU: model.K80, Region: cloud.USCentral1, Tier: cloud.Transient, Workers: 1}
	outcomes := make(map[string]ScenarioOutcome)
	for _, rev := range []string{"", "weibull", "diurnal"} {
		sc := base
		sc.RevModel = rev
		out, err := MeasureScenario(sc, 2000, 500, SessionOptions{}, 7)
		if err != nil {
			t.Fatalf("rev=%q: %v", rev, err)
		}
		again, err := MeasureScenario(sc, 2000, 500, SessionOptions{}, 7)
		if err != nil || !reflect.DeepEqual(again, out) {
			t.Fatalf("rev=%q not deterministic: %+v vs %+v (%v)", rev, out, again, err)
		}
		outcomes[rev] = out
	}
	// Identical seeds and placements, different lifetime regimes: at
	// least one pair must measure differently, or the axis is dead.
	if reflect.DeepEqual(outcomes[""], outcomes["weibull"]) && reflect.DeepEqual(outcomes[""], outcomes["diurnal"]) {
		t.Error("all revocation models produced identical outcomes")
	}
	bad := base
	bad.RevModel = "no-such-model"
	if _, err := MeasureScenario(bad, 100, 0, SessionOptions{}, 1); err == nil {
		t.Error("unknown revocation model accepted")
	}
}
