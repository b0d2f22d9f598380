package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
)

// The providers experiment asks the cross-market question the paper's
// single-cloud characterization sets up: once several transient
// markets with different price books and revocation climates exist,
// does a fleet that arbitrages across them beat the best fleet locked
// into any one of them? Each single-market fleet runs the strongest
// single-market policy (deadline-aware); the cross-provider fleet runs
// the arbitrage scheduler over all three markets. Every fleet in one
// (regime, replication) cell faces the identical job stream and the
// identical per-cell slot budget, so rows differ only by market access
// and policy.

// providerMarkets are the registered provider worlds the experiment
// spans; arbitrage schedules across all of them.
func providerMarkets() []string { return []string{"gce", "aws", "serverless-cpu"} }

func planProviders(p *plan) *campaign.Plan {
	entrants := []entrant{
		{name: "gce-only", scheduler: "deadline-aware", providers: []string{"gce"}},
		{name: "aws-only", scheduler: "deadline-aware", providers: []string{"aws"}},
		{name: "serverless-only", scheduler: "deadline-aware", providers: []string{"serverless-cpu"}},
		{name: "arbitrage", scheduler: "arbitrage", providers: providerMarkets()},
	}
	return p.fleetComparison("providers", providerMarkets(), entrants, func(runs []fleetRun) (Result, error) {
		return &ProvidersResult{Runs: runs}, nil
	})
}

// ProvidersResult renders the cross-provider comparison.
type ProvidersResult struct {
	Runs []fleetRun
}

// ArbitrageWins lists the regimes where the arbitrage fleet beats the
// best single-market fleet on mean deadline misses, or matches it on
// misses while costing strictly less — the claim the providers golden
// pins.
func (r *ProvidersResult) ArbitrageWins() []string {
	type score struct{ misses, cost float64 }
	beats := func(a, b score) bool {
		return a.misses < b.misses || (a.misses == b.misses && a.cost < b.cost)
	}
	arb, best := map[string]score{}, map[string]score{}
	for _, row := range rowsOf(r.Runs, fleetRun.cell) {
		run, s := row.runs[0], score{row.mean(fleetRun.misses), row.mean(fleetRun.cost)}
		if run.Entrant == "arbitrage" {
			arb[run.Regime] = s
		} else if b, ok := best[run.Regime]; !ok || beats(s, b) {
			best[run.Regime] = s
		}
	}
	var wins []string
	for _, regime := range fleetRegimes() {
		a, okA := arb[regime.name]
		b, okB := best[regime.name]
		if okA && okB && beats(a, b) {
			wins = append(wins, regime.name)
		}
	}
	return wins
}

// String renders one row per (regime, fleet), averaged over the
// replications, in unit declaration order.
func (r *ProvidersResult) String() string {
	t := newTable(fleetTitle("Cross-provider fleet comparison"),
		"regime", "fleet", "done", "misses", "wait (h)", "cost ($)", "revoked")
	for _, row := range rowsOf(r.Runs, fleetRun.cell) {
		run := row.runs[0]
		t.addRow(run.Regime, run.Entrant,
			fmt.Sprintf("%.1f", row.mean(fleetRun.done)),
			fmt.Sprintf("%.1f", row.mean(fleetRun.misses)),
			fmt.Sprintf("%.2f", row.mean(fleetRun.wait)),
			fmt.Sprintf("%.2f", row.mean(fleetRun.cost)),
			fmt.Sprintf("%.1f", row.mean(fleetRun.revoked)))
	}
	t.addNote("regimes: ample = infinite pool, tight = 4 transient slots per offered cell (poisson arrivals), scarce = 2 slots per cell (bursty arrivals)")
	t.addNote("fleets in one cell share the job stream, slot budget, and seeds; single-market fleets run deadline-aware, arbitrage sees gce+aws+serverless-cpu")
	t.addNote("markets: gce = Table V calibration, aws = pricier book under a calmer (refit weibull) climate, serverless-cpu = per-invocation pricing with no revocations")
	if wins := r.ArbitrageWins(); len(wins) > 0 {
		t.addNote("arbitrage beats the best single market (fewer misses, or equal misses at lower cost) in: %s", strings.Join(wins, ", "))
	} else {
		t.addNote("arbitrage beats the best single market in: none")
	}
	return t.String()
}
