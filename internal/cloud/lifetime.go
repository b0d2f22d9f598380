package cloud

import (
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stats"
)

// LifetimeModel decides how long a transient server lives: every
// revocation regime the simulator can explore — the paper's Table V
// calibration, parametric alternatives, or an empirical trace replay —
// implements this one interface. The provider asks it once per
// transient instance, at the moment the instance reaches Running.
//
// Implementations must be stateless after construction (the planner
// samples from many goroutines at once, each with its own rng) and
// must uphold the lifetime invariants the property tests pin: the
// returned lifetime is in (0, MaxTransientLifetimeSeconds]; revoked
// lifetimes are strictly below the cap; survivors return exactly the
// cap.
type LifetimeModel interface {
	// Name is the model's registry identity, e.g. "table5" or
	// "weibull"; it appears in scenario keys, so equal names must mean
	// equal sampling behavior.
	Name() string
	// SampleLifetime draws (revoked, lifetimeSeconds) for a transient
	// server of the given type that reached Running at launchHours
	// (absolute simulation hours; the simulation starts at 00:00 UTC).
	SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (revoked bool, lifetimeSeconds float64)
}

// DefaultLifetimeModelName names the model every simulation uses
// unless a scenario selects otherwise: the Table V calibration with
// Fig. 8 lifetime shapes and Fig. 9 time-of-day structure.
const DefaultLifetimeModelName = "table5"

// lifetimeModels is the lifetime-model registry. Builtins register at
// init; cmd/pland registers trace-replay models at startup.
var lifetimeModels = registry.New[LifetimeModel]("cloud", "lifetime model", DefaultLifetimeModelName)

func init() {
	for _, m := range []LifetimeModel{
		tableVModel{},
		newWeibullModel(),
		newDiurnalModel(),
		norevokeModel{},
		newCalmWeibullModel(),
	} {
		RegisterLifetimeModel(m)
	}
}

// RegisterLifetimeModel adds a model under its name. A duplicate (or
// empty) name panics with the offending name: a custom model must
// never silently shadow a builtin. Callers registering user-supplied
// names (cmd/pland -trace) pre-check with LookupLifetimeModel.
func RegisterLifetimeModel(m LifetimeModel) { lifetimeModels.Register(m.Name(), m) }

// LookupLifetimeModel resolves a model name; the empty string means
// the default. Unknown names report the available ones.
func LookupLifetimeModel(name string) (LifetimeModel, error) { return lifetimeModels.Lookup(name) }

// DefaultLifetimeModel returns the Table V calibration model.
func DefaultLifetimeModel() LifetimeModel {
	m, err := LookupLifetimeModel(DefaultLifetimeModelName)
	if err != nil {
		panic(err) // registered at init; unreachable
	}
	return m
}

// LifetimeModelNames lists every registered model, sorted, with the
// default first — the order /v1/catalog reports.
func LifetimeModelNames() []string { return lifetimeModels.Names() }

// tableVModel is the default regime: the cell-by-cell Table V
// calibration (revocation fraction, early-death mass, body skew) with
// deaths thinned onto Fig. 9's local-hour hazard — exactly the
// sampler the provider has always used, now behind the interface.
type tableVModel struct{}

func (tableVModel) Name() string { return DefaultLifetimeModelName }

func (tableVModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	return sampleLifetime(rng, r, g, launchHours)
}
