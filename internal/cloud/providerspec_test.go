package cloud

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func TestProviderRegistry(t *testing.T) {
	names := ProviderNames()
	if len(names) != 3 || names[0] != DefaultProviderName {
		t.Fatalf("ProviderNames() = %v, want default first with 3 builtins", names)
	}
	for _, name := range []string{"", "gce", "aws", "serverless-cpu"} {
		s, err := LookupProvider(name)
		if err != nil {
			t.Fatalf("LookupProvider(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = DefaultProviderName
		}
		if s.Name != want {
			t.Fatalf("LookupProvider(%q).Name = %q", name, s.Name)
		}
		if _, err := LookupLifetimeModel(s.LifetimeModel); err != nil {
			t.Fatalf("provider %q default lifetime model: %v", s.Name, err)
		}
	}
	if _, err := LookupProvider("no-such-market"); err == nil ||
		!strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown provider lookup = %v, want an error listing the registry", err)
	}
	if DefaultProvider().Name != DefaultProviderName {
		t.Fatalf("DefaultProvider().Name = %q", DefaultProvider().Name)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("re-registering a builtin provider name must panic")
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, DefaultProviderName) {
				t.Fatalf("duplicate-registration panic %q does not name the offender %q", msg, DefaultProviderName)
			}
		}()
		registerProvider(&ProviderSpec{
			Name:          DefaultProviderName,
			LifetimeModel: DefaultLifetimeModelName,
			Offers:        Offered,
			GPUHourly:     func(g model.GPU, t Tier) float64 { return 1 },
			Startup:       sampleStartup,
		})
	}()
}

// TestDefaultProviderMatchesLegacyCalibration pins the gce spec to the
// package-level functions it replaced: the refactor from inline
// constants to a registered spec must not move a single price or
// startup draw, or the all.golden snapshot (and every cached planner
// line) silently measures a different cloud.
func TestDefaultProviderMatchesLegacyCalibration(t *testing.T) {
	s := DefaultProvider()
	for _, g := range model.AllGPUs() {
		for _, tier := range []Tier{OnDemand, Transient} {
			if got, want := s.GPUHourly(g, tier), model.HourlyPrice(g, tier == Transient); got != want {
				t.Fatalf("gce GPUHourly(%v, %v) = %v, want legacy %v", g, tier, got, want)
			}
		}
		for _, r := range AllRegions() {
			if s.Offers(r, g) != Offered(r, g) {
				t.Fatalf("gce Offers(%v, %v) disagrees with the legacy catalog", r, g)
			}
		}
	}
	if s.PSHourly != model.ParameterServerHourly {
		t.Fatalf("gce PSHourly = %v, want %v", s.PSHourly, model.ParameterServerHourly)
	}
	// Same rng, same draw: the spec's Startup is the legacy sampler.
	a, b := stats.NewRng(7), stats.NewRng(7)
	for i := 0; i < 50; i++ {
		got := s.Startup(a, model.K80, Transient, USCentral1, i%2 == 0)
		want := sampleStartup(b, model.K80, Transient, USCentral1, i%2 == 0)
		if got != want {
			t.Fatalf("draw %d: gce Startup = %+v, want legacy %+v", i, got, want)
		}
	}
}

// TestBuiltinProviderSpecs sanity-checks the synthetic markets: aws
// keeps the default catalog shape but reprices it with a shallower
// spot discount, and the serverless market sells only the K80-class
// function bundle — everywhere, at one tier-independent price.
func TestBuiltinProviderSpecs(t *testing.T) {
	aws, err := LookupProvider("aws")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range model.AllGPUs() {
		od, spot := aws.GPUHourly(g, OnDemand), aws.GPUHourly(g, Transient)
		if od <= 0 || spot <= 0 || spot >= od {
			t.Fatalf("aws %v prices: on-demand %v, spot %v; want 0 < spot < on-demand", g, od, spot)
		}
		awsDisc := spot / od
		gceDisc := model.HourlyPrice(g, true) / model.HourlyPrice(g, false)
		if awsDisc <= gceDisc {
			t.Fatalf("aws %v spot discount %.2f not shallower than gce's %.2f", g, awsDisc, gceDisc)
		}
	}
	// aws startup is the gce draw shifted later by a constant.
	a, b := stats.NewRng(11), stats.NewRng(11)
	got := aws.Startup(a, model.V100, Transient, USEast1, false)
	want := sampleStartup(b, model.V100, Transient, USEast1, false)
	want.Provisioning += awsStartupShiftSeconds
	if got != want {
		t.Fatalf("aws startup = %+v, want gce + %ds provisioning = %+v", got, awsStartupShiftSeconds, want)
	}

	sl, err := LookupProvider("serverless-cpu")
	if err != nil {
		t.Fatal(err)
	}
	if sl.LifetimeModel != "norevoke" {
		t.Fatalf("serverless lifetime model = %q, want norevoke", sl.LifetimeModel)
	}
	for _, r := range AllRegions() {
		if !sl.Offers(r, model.K80) {
			t.Fatalf("serverless must offer the K80-equivalent bundle in %v", r)
		}
		if sl.Offers(r, model.V100) || sl.Offers(r, model.P100) {
			t.Fatalf("serverless offers a real GPU in %v", r)
		}
	}
	if od, spot := sl.GPUHourly(model.K80, OnDemand), sl.GPUHourly(model.K80, Transient); od != spot {
		t.Fatalf("serverless has no spot market; tiers priced %v vs %v", od, spot)
	}
	if regions := sl.OfferedRegions(model.K80); len(regions) != len(AllRegions()) {
		t.Fatalf("serverless OfferedRegions(K80) = %v, want every region", regions)
	}
}

// TestNorevokeNeverRevokes holds the serverless market's lifetime
// model to its name across many draws.
func TestNorevokeNeverRevokes(t *testing.T) {
	m, err := LookupLifetimeModel("norevoke")
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRng(3)
	for i := 0; i < 1000; i++ {
		revoked, life := m.SampleLifetime(rng, USCentral1, model.K80, float64(i))
		if revoked {
			t.Fatalf("draw %d: norevoke revoked after %v", i, life)
		}
	}
}
