package cloud

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLifetimeModelRegistry(t *testing.T) {
	names := LifetimeModelNames()
	if len(names) < 3 || names[0] != DefaultLifetimeModelName {
		t.Fatalf("LifetimeModelNames() = %v, want default first with ≥3 builtins", names)
	}
	for _, name := range []string{"", "table5", "weibull", "diurnal"} {
		m, err := LookupLifetimeModel(name)
		if err != nil {
			t.Fatalf("LookupLifetimeModel(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = DefaultLifetimeModelName
		}
		if m.Name() != want {
			t.Fatalf("LookupLifetimeModel(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := LookupLifetimeModel("no-such-model"); err == nil ||
		!strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown model lookup = %v, want an error listing the registry", err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("re-registering a builtin name must panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, DefaultLifetimeModelName) {
				t.Fatalf("duplicate-registration panic %q does not name the offender %q", msg, DefaultLifetimeModelName)
			}
		}()
		RegisterLifetimeModel(tableVModel{})
	}()
}

// TestLifetimeModelInvariants holds every registered builtin to the
// contract the provider relies on: lifetimes in (0, cap], survivors
// exactly at the cap, revocations strictly below it.
func TestLifetimeModelInvariants(t *testing.T) {
	for _, name := range LifetimeModelNames() {
		m, err := LookupLifetimeModel(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRng(99)
		for _, g := range model.AllGPUs() {
			for _, r := range OfferedRegions(g) {
				for i := 0; i < 300; i++ {
					revoked, life := m.SampleLifetime(rng, r, g, float64(i)*1.7)
					if life <= 0 || life > MaxTransientLifetimeSeconds {
						t.Fatalf("%s %v/%v: lifetime %v out of (0, cap]", name, r, g, life)
					}
					if !revoked && life != MaxTransientLifetimeSeconds {
						t.Fatalf("%s %v/%v: survivor lifetime %v != cap", name, r, g, life)
					}
					if revoked && life >= MaxTransientLifetimeSeconds {
						t.Fatalf("%s %v/%v: revocation at/past cap", name, r, g)
					}
				}
			}
		}
	}
}

// TestParametricModelsKeepTableVFractions: weibull and diurnal anchor
// every cell's 24 h revocation probability to the Table V calibration,
// whatever they do to the lifetime shape.
func TestParametricModelsKeepTableVFractions(t *testing.T) {
	for _, name := range []string{"weibull", "diurnal"} {
		m, err := LookupLifetimeModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for g, regions := range revocationConfigs {
			for r, cfg := range regions {
				if !cfg.offered {
					continue
				}
				rng := stats.NewRng(int64(g)*1000 + int64(r))
				const n = 4000
				revoked := 0
				for i := 0; i < n; i++ {
					if rev, _ := m.SampleLifetime(rng, r, g, float64(i%24)); rev {
						revoked++
					}
				}
				got := float64(revoked) / n
				if math.Abs(got-cfg.frac24h) > 0.03 {
					t.Errorf("%s %v/%v revocation fraction = %.3f, calibrated %.3f", name, r, g, got, cfg.frac24h)
				}
			}
		}
	}
}

// TestWeibullMatchesConditionalMedian: the second fitted quantile — the
// median lifetime given revocation — tracks the default calibration.
func TestWeibullMatchesConditionalMedian(t *testing.T) {
	m, err := LookupLifetimeModel("weibull")
	if err != nil {
		t.Fatal(err)
	}
	cfg := revocationConfigs[model.K80][USWest1] // back-loaded cell
	wantMedian := conditionalMedianHours(cfg)
	rng := stats.NewRng(5)
	var lifetimes []float64
	for i := 0; i < 20000; i++ {
		if rev, life := m.SampleLifetime(rng, USWest1, model.K80, 0); rev {
			lifetimes = append(lifetimes, life/3600)
		}
	}
	if len(lifetimes) < 1000 {
		t.Fatalf("too few revocations (%d)", len(lifetimes))
	}
	below := 0
	for _, l := range lifetimes {
		if l < wantMedian {
			below++
		}
	}
	if frac := float64(below) / float64(len(lifetimes)); math.Abs(frac-0.5) > 0.03 {
		t.Errorf("P(life < fitted median %.2f h) = %.3f, want ≈0.5", wantMedian, frac)
	}
}

// TestDiurnalQuietHoursAreExact: where the default model's
// acceptance-rejection sampler tolerates tiny leakage into Fig. 9's
// V100 quiet window, the diurnal hazard is exactly zero there.
func TestDiurnalQuietHoursAreExact(t *testing.T) {
	m, err := LookupLifetimeModel("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRng(17)
	total := 0
	for i := 0; i < 6000; i++ {
		launch := float64(i%48) * 0.5
		revoked, life := m.SampleLifetime(rng, USCentral1, model.V100, launch)
		if !revoked {
			continue
		}
		total++
		h := USCentral1.LocalHour(launch + life/3600)
		if h >= 16 && h < 20 {
			t.Fatalf("diurnal V100 revocation at local hour %d (launch %.1f, life %.2f h)", h, launch, life/3600)
		}
	}
	if total < 500 {
		t.Fatalf("too few revocations (%d) to assess quiet hours", total)
	}
}

func TestEmpiricalModelBootstrapsTrace(t *testing.T) {
	samples := []LifetimeSample{
		{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: 3.5},
		{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: 11.25},
		{GPU: model.K80, Region: USWest1, Revoked: false, LifetimeHours: 24},
	}
	m, err := NewEmpiricalModel("spot-trace", samples)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Covers(USWest1, model.K80) || m.Covers(USEast1, model.K80) {
		t.Fatal("Covers misreports trace coverage")
	}
	rng := stats.NewRng(1)
	seen := map[float64]int{}
	for i := 0; i < 3000; i++ {
		revoked, life := m.SampleLifetime(rng, USWest1, model.K80, float64(i))
		if !revoked {
			if life != MaxTransientLifetimeSeconds {
				t.Fatal("censored draw must survive to the cap")
			}
			seen[24]++
			continue
		}
		seen[life/3600]++
	}
	for _, h := range []float64{3.5, 11.25, 24} {
		if frac := float64(seen[h]) / 3000; math.Abs(frac-1.0/3) > 0.05 {
			t.Errorf("bootstrap weight of %.2f h draw = %.3f, want ≈1/3", h, frac)
		}
	}
	if len(seen) != 3 {
		t.Errorf("bootstrap produced values outside the trace: %v", seen)
	}

	// Uncovered cells fall back to the default calibration rather than
	// failing a scenario the trace merely did not observe.
	fallbackRevoked := 0
	for i := 0; i < 2000; i++ {
		if rev, _ := m.SampleLifetime(rng, EuropeWest1, model.K80, float64(i%24)); rev {
			fallbackRevoked++
		}
	}
	want := revocationConfigs[model.K80][EuropeWest1].frac24h
	if got := float64(fallbackRevoked) / 2000; math.Abs(got-want) > 0.04 {
		t.Errorf("fallback revocation fraction = %.3f, want Table V's %.3f", got, want)
	}
}

func TestEmpiricalModelValidation(t *testing.T) {
	ok := []LifetimeSample{{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: 2}}
	if _, err := NewEmpiricalModel("", ok); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewEmpiricalModel("x", nil); err == nil {
		t.Error("empty trace accepted")
	}
	bad := []LifetimeSample{{GPU: model.K80, Region: Region(42), Revoked: true, LifetimeHours: 2}}
	if _, err := NewEmpiricalModel("x", bad); err == nil {
		t.Error("invalid region accepted")
	}
	bad = []LifetimeSample{{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: 25}}
	if _, err := NewEmpiricalModel("x", bad); err == nil {
		t.Error("revocation past the cap accepted")
	}
	bad = []LifetimeSample{{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: math.NaN()}}
	if _, err := NewEmpiricalModel("x", bad); err == nil {
		t.Error("NaN lifetime accepted")
	}
}

// TestProviderHonorsLifetimeModel runs transient servers under an
// empirical single-point trace: every revocation must land at the
// trace's one recorded lifetime.
func TestProviderHonorsLifetimeModel(t *testing.T) {
	m, err := NewEmpiricalModel("point-mass", []LifetimeSample{
		{GPU: model.K80, Region: USWest1, Revoked: true, LifetimeHours: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	p := NewProviderFor(k, stats.NewRng(3), nil, m)
	var ins []*Instance
	for i := 0; i < 20; i++ {
		ins = append(ins, p.MustLaunch(Request{Region: USWest1, GPU: model.K80, Tier: Transient}))
	}
	k.Run()
	for _, in := range ins {
		if !in.WasRevoked() {
			t.Fatal("point-mass trace revokes everything")
		}
		if got := in.LifetimeSeconds(k.Now()); math.Abs(got-5*3600) > 1e-6 {
			t.Fatalf("lifetime %v, want exactly 5 h", got)
		}
	}
}

// TestDefaultProviderUnchangedByRefactor: NewProvider and an explicit
// table5 NewProviderFor must consume randomness identically —
// the property that keeps every golden snapshot stable.
func TestDefaultProviderUnchangedByRefactor(t *testing.T) {
	run := func(mk func(*sim.Kernel, *stats.Rng) *Provider) []float64 {
		k := &sim.Kernel{}
		p := mk(k, stats.NewRng(8))
		for i := 0; i < 40; i++ {
			p.MustLaunch(Request{Region: EuropeWest1, GPU: model.K80, Tier: Transient})
		}
		k.Run()
		var out []float64
		for _, in := range p.Instances() {
			out = append(out, in.LifetimeSeconds(k.Now()))
		}
		return out
	}
	a := run(NewProvider)
	b := run(func(k *sim.Kernel, rng *stats.Rng) *Provider {
		return NewProviderFor(k, rng, nil, DefaultLifetimeModel())
	})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instance %d lifetime differs: %v vs %v", i, a[i], b[i])
		}
	}
}
