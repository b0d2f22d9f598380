package cloud

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stats"
)

// ProviderSpec bundles one market's calibration: which (region, GPU)
// cells it sells, what they cost, how instances start, and which
// lifetime regime transient servers default to. What used to be
// package-level GCE constants becomes one registered world among
// several, so experiments can ask "where should this train?" across
// markets instead of only "how should this train?" within one.
//
// Specs are immutable after registration: the name appears in scenario
// and fleet keys, so equal names must mean equal market behavior for
// the life of the process (the internal/registry contract).
type ProviderSpec struct {
	// Name is the registry identity, e.g. "gce"; it appears in
	// scenario keys as prov=<name>.
	Name string
	// Description is a one-line provenance note for catalogs and docs.
	Description string
	// LifetimeModel names the revocation regime transient servers
	// follow when a scenario does not select one explicitly (a
	// registered lifetime-model name).
	LifetimeModel string
	// Offers reports whether the market sells the GPU in the region.
	// CPU-only parameter servers are available everywhere and never
	// consult it.
	Offers func(r Region, g model.GPU) bool
	// GPUHourly is the full hourly price (GPU plus host VM) of a GPU
	// server of the given type and tier, in USD.
	GPUHourly func(g model.GPU, t Tier) float64
	// PSHourly is the hourly price of a CPU-only parameter server.
	PSHourly float64
	// Startup draws a startup breakdown for one accepted request;
	// churning flags a recent revocation in the region (Fig. 7's
	// "immediate request" condition).
	Startup func(rng *stats.Rng, g model.GPU, t Tier, r Region, churning bool) StartupBreakdown
}

// OfferedRegions lists the spec's regions selling the given GPU, in
// catalog order.
func (s *ProviderSpec) OfferedRegions(g model.GPU) []Region {
	var out []Region
	for _, r := range AllRegions() {
		if s.Offers(r, g) {
			out = append(out, r)
		}
	}
	return out
}

// DefaultProviderName names the market every simulation uses unless a
// scenario selects otherwise: the paper's GCE calibration.
const DefaultProviderName = "gce"

// providers is the market registry; builtins register at init.
var providers = registry.New[*ProviderSpec]("cloud", "provider", DefaultProviderName)

// registerProvider adds a market to the registry (see internal/registry
// for the naming rules). The spec must be complete, and its default
// lifetime model must resolve.
func registerProvider(s *ProviderSpec) {
	if s.Offers == nil || s.GPUHourly == nil || s.Startup == nil {
		panic(fmt.Sprintf("cloud: provider %q spec is missing Offers/GPUHourly/Startup", s.Name))
	}
	if _, err := LookupLifetimeModel(s.LifetimeModel); err != nil {
		panic(fmt.Sprintf("cloud: provider %q default lifetime model: %v", s.Name, err))
	}
	providers.Register(s.Name, s)
}

// LookupProvider resolves a provider name; the empty string means the
// default. Unknown names report the available ones.
func LookupProvider(name string) (*ProviderSpec, error) { return providers.Lookup(name) }

// DefaultProvider returns the GCE spec.
func DefaultProvider() *ProviderSpec {
	s, err := LookupProvider(DefaultProviderName)
	if err != nil {
		panic(err) // registered at init; unreachable
	}
	return s
}

// ProviderNames lists every registered market, sorted, with the
// default first — the order /v1/catalog reports.
func ProviderNames() []string { return providers.Names() }

// LifetimeModelFor resolves which lifetime model a scenario runs
// under: revModel when named, else the provider's default regime, else
// the default. An unknown provider falls through to the default here;
// its lookup error surfaces wherever the provider itself is resolved.
func LifetimeModelFor(revModel, provider string) string {
	if revModel != "" {
		return revModel
	}
	if spec, err := LookupProvider(provider); err == nil {
		return spec.LifetimeModel
	}
	return DefaultLifetimeModelName
}

// --- Built-in worlds -------------------------------------------------

// awsPrices is the synthetic aws-like price book: whole-instance
// hourly prices (GPU plus host) shaped after 2019 us-east-1 EC2 list
// prices (p2.xlarge for K80, p3.2xlarge for V100; the P100 row is
// interpolated — EC2 never sold P100s). The spot discount is
// deliberately shallower than GCE's fixed ~70% (about 65% here), so
// cross-market arbitrage has a real price axis to trade on.
var awsPrices = map[model.GPU]struct{ onDemand, spot float64 }{
	model.K80:  {onDemand: 0.90, spot: 0.31},
	model.P100: {onDemand: 2.10, spot: 0.74},
	model.V100: {onDemand: 3.06, spot: 1.07},
}

// awsStartupShiftSeconds shifts every aws provisioning draw later:
// EC2 GPU instances provision slower than GCE's in the measurements
// the paper cites (synthetic, see DESIGN.md "Provider worlds").
const awsStartupShiftSeconds = 15

// Serverless pricing per Barrak et al.'s cost-performance comparison
// of serverless vs. VM training: a per-invocation $/GB-second rate
// (the 2019 Lambda list price) times the memory footprint of the
// function bundle that stands in for one K80-class worker. There is
// no spot market — both tiers cost the same and nothing is ever
// revoked; the baseline isolates what revocation risk is worth.
const (
	serverlessGBSecondUSD = 0.0000166667
	// serverlessWorkerGB is the aggregate memory of the concurrent
	// invocations emulating one K80-equivalent worker slice.
	serverlessWorkerGB = 9.6
	// serverlessPSGB is the single long-lived coordinator function.
	serverlessPSGB = 1.7
)

func init() {
	registerProvider(&ProviderSpec{
		Name:          DefaultProviderName,
		Description:   "Google Cloud calibration from the paper: Table V revocations, Fig. 6/7 startup, 2019 us-central1 prices",
		LifetimeModel: DefaultLifetimeModelName,
		Offers:        Offered,
		GPUHourly: func(g model.GPU, t Tier) float64 {
			return model.HourlyPrice(g, t == Transient)
		},
		PSHourly: model.ParameterServerHourly,
		Startup:  sampleStartup,
	})
	registerProvider(&ProviderSpec{
		Name:          "aws",
		Description:   "synthetic aws-like market: EC2-shaped prices with a shallower spot discount, calmer revocation climate (calm-weibull)",
		LifetimeModel: "calm-weibull",
		Offers:        Offered, // same catalog shape as the paper's Table V
		GPUHourly: func(g model.GPU, t Tier) float64 {
			p := awsPrices[g]
			if t == Transient {
				return p.spot
			}
			return p.onDemand
		},
		PSHourly: 0.192, // m5.xlarge-shaped coordinator
		Startup: func(rng *stats.Rng, g model.GPU, t Tier, r Region, churning bool) StartupBreakdown {
			b := sampleStartup(rng, g, t, r, churning)
			b.Provisioning += awsStartupShiftSeconds
			return b
		},
	})
	registerProvider(&ProviderSpec{
		Name:          "serverless-cpu",
		Description:   "serverless baseline per Barrak et al.: K80-equivalent CPU function bundles, per-invocation pricing, no revocation",
		LifetimeModel: "norevoke",
		// The bundle emulates one fixed worker class; it is catalogued
		// as the K80-equivalent slice, available in every region (a
		// function deploys anywhere).
		Offers: func(r Region, g model.GPU) bool { return g == model.K80 },
		GPUHourly: func(g model.GPU, t Tier) float64 {
			// No spot market: both tiers bill the same per-invocation
			// rate, folded into an effective hourly price.
			return serverlessGBSecondUSD * serverlessWorkerGB * 3600
		},
		PSHourly: serverlessGBSecondUSD * serverlessPSGB * 3600,
		Startup: func(rng *stats.Rng, g model.GPU, t Tier, r Region, churning bool) StartupBreakdown {
			// Function cold starts are seconds, not minutes, and churn
			// does not exist in a pool that never revokes.
			return StartupBreakdown{
				Provisioning: rng.NormalPos(2.0, 0.4),
				Staging:      rng.NormalPos(1.5, 0.3),
				Booting:      rng.NormalPos(1.0, 0.2),
			}
		},
	})
}
