package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/train"
)

// TestTracedAllMatchesGolden is the tracing-neutrality guarantee: the
// primary stdout of `repro -exp all` with the sim-plane trace recorder
// attached must match the same committed snapshot the untraced golden
// test pins — byte for byte. Tracing draws no randomness and schedules
// no events, so turning it on cannot move a single digit.
func TestTracedAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	runners := experiments.All()
	col := obs.NewCollector()
	var buf bytes.Buffer
	printed, err := writeExperimentsObserved(&buf, runners, 42, runtime.GOMAXPROCS(0), col, nil)
	if err != nil {
		t.Fatal(err)
	}
	if printed != len(runners) {
		t.Fatalf("rendered %d experiments, want %d", printed, len(runners))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatalf("missing golden snapshot (generate with -update): %v", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("tracing perturbed the primary output:\n%s", firstDivergence(got, want))
	}
	if col.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	checkTraceInvariants(t, col)
}

// checkTraceInvariants asserts what every unit's trace must hold: event
// times never decrease; within each scope the speed windows close at
// completed steps 100, 200, 300, … with no gap (the paper's 100-step
// window, §III-A); and each scope's membership holds (see membership).
func checkTraceInvariants(t *testing.T, col *obs.Collector) {
	t.Helper()
	var windows int
	for _, key := range col.Units() {
		last := math.Inf(-1)
		next := map[string]int64{}
		scopes := map[string]*membership{}
		for _, e := range col.Unit(key).Events() {
			if e.T < last {
				t.Fatalf("%s: %s event at t=%v follows t=%v", key, e.Kind, e.T, last)
			}
			last = e.T
			m := scopes[e.Scope]
			if m == nil {
				m = &membership{members: map[string]bool{}, left: map[string]bool{}}
				scopes[e.Scope] = m
			}
			if err := m.observe(e); err != nil {
				t.Fatalf("%s: scope %q at t=%v: %v", key, e.Scope, e.T, err)
			}
			if e.Kind != train.EventSpeed {
				continue
			}
			next[e.Scope] += 100
			if e.Step != next[e.Scope] {
				t.Fatalf("%s: scope %q speed window closes at step %d, want %d", key, e.Scope, e.Step, next[e.Scope])
			}
			windows++
		}
	}
	if windows == 0 {
		t.Fatal("traced run closed no speed windows")
	}
}

// membership replays one scope's cluster membership from its trace and
// checks four invariants: every rebalance splits the same global
// batch; a rebalance names only members, the workers that started
// with the session or have joined, and have not since been revoked or
// shrunk; no worker joins after it left; and the manager never
// requests more replacements than the cluster has seen revocations.
// The session's workers are the ones its first rebalance names when no
// join, revocation or shrink precedes it: Start rebalances before any
// membership change.
type membership struct {
	total   int             // the global batch, from the first rebalance
	changed bool            // a join, revocation or shrink has happened
	members map[string]bool // workers training now
	left    map[string]bool // workers revoked or shrunk

	revocations, replaces int
}

func (m *membership) observe(e obs.Event) error {
	switch e.Kind {
	case train.EventJoin:
		if m.left[e.Worker] {
			return fmt.Errorf("%s joins after it left", e.Worker)
		}
		m.members[e.Worker] = true
		m.changed = true
	case train.EventRevocation, train.EventShrink:
		if e.Kind == train.EventRevocation {
			m.revocations++
			if e.Worker == "" {
				break // an instance revoked before its worker joined
			}
		}
		delete(m.members, e.Worker)
		m.left[e.Worker] = true
		m.changed = true
	case "replace":
		if m.replaces++; m.replaces > m.revocations {
			return fmt.Errorf("replacement %d follows only %d revocations", m.replaces, m.revocations)
		}
	case train.EventRebalance:
		sum := 0
		for _, f := range strings.Fields(e.Detail) {
			name, share, ok := strings.Cut(f, "=")
			n, err := strconv.Atoi(share)
			if !ok || err != nil {
				return fmt.Errorf("malformed rebalance share %q", f)
			}
			if !m.changed {
				m.members[name] = true
			} else if !m.members[name] {
				return fmt.Errorf("rebalance %q names %s, which is not a member", e.Detail, name)
			}
			sum += n
		}
		if m.total == 0 {
			m.total = sum
		} else if sum != m.total {
			return fmt.Errorf("rebalance %q splits %d, earlier rebalances split %d", e.Detail, sum, m.total)
		}
	}
	return nil
}

// TestRevModelsTracesItsSessions: revmodels plans one recorder per
// unit, and a unit run alone records a trace that holds the
// invariants. One unit stands in for the whole 24-session campaign.
func TestRevModelsTracesItsSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("revmodels session in -short mode")
	}
	r, ok := experiments.ByID("revmodels")
	if !ok {
		t.Fatal("revmodels experiment not registered")
	}
	col := obs.NewCollector()
	p := r.PlanTraced(42, col)
	if n := len(col.Units()); n != len(p.Units) || n != 24 {
		t.Fatalf("%d recorders for %d units, want one for each of 24 units", n, len(p.Units))
	}
	u := p.Units[0]
	if _, err := u.Run(campaign.Derive(p.Seed, 0, u.Key)); err != nil {
		t.Fatal(err)
	}
	checkTraceInvariants(t, col)
}

// traceFig2 runs the fig2 campaign traced at the given worker count
// and returns the collector's NDJSON stream.
func traceFig2(t *testing.T, parallel int) []byte {
	t.Helper()
	r, ok := experiments.ByID("fig2")
	if !ok {
		t.Fatal("fig2 experiment not registered")
	}
	col := obs.NewCollector()
	if _, err := writeExperimentsObserved(io.Discard, []experiments.Runner{r}, 42, parallel, col, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenDeterministic pins the trace stream itself: fig2's
// sim-plane trace (seed 42) must be byte-identical at -parallel 1 and
// -parallel 8, and must match its committed golden. Regenerate with
// -update after an intentional event-vocabulary change.
func TestTraceGoldenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig2 campaign in -short mode")
	}
	seq := traceFig2(t, 1)
	par := traceFig2(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("trace depends on worker count:\n%s", firstDivergence(par, seq))
	}
	if len(seq) == 0 {
		t.Fatal("fig2 trace is empty")
	}

	golden := filepath.Join("testdata", "trace_fig2.golden")
	if *update {
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(seq))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden snapshot (generate with -update): %v", err)
	}
	if !bytes.Equal(seq, want) {
		t.Fatalf("fig2 trace drifted from the committed snapshot:\n%s\nif the change is intentional, regenerate with -update and review the diff",
			firstDivergence(seq, want))
	}
}

// TestTimingCollectorReport covers the -timing-out artifact shape: one
// row per unit, experiment-major order, totals consistent, and a
// delivery time.
func TestTimingCollectorReport(t *testing.T) {
	r, ok := experiments.ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment not registered")
	}
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	timings := newTimingCollector([]experiments.Runner{r}, 2)
	if _, err := writeExperimentsObserved(io.Discard, []experiments.Runner{r}, 42, 2, nil, timings); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "timing.json")
	if err := timings.writeFile(path, 1.0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"experiment": "fig5"`)) || !bytes.Contains(raw, []byte(`"per_unit"`)) ||
		!bytes.Contains(raw, []byte(`"delivered_seconds"`)) {
		t.Fatalf("timing artifact missing expected fields:\n%s", raw)
	}
}

// TestTimingAccountsForWall checks that -timing-out accounts for a
// run's wall clock. At -parallel 1 units and reduces run one after
// another, so their seconds must come within 5% of the measured wall:
// table4's SVR grid search and endtoend's model fits run in their
// reduces, and both reduces must be listed. Each experiment's unit
// rows are its units, numbered in declaration order, and its delivery
// row comes in declaration order, no earlier than the one before it and
// no later than the wall.
func TestTimingAccountsForWall(t *testing.T) {
	if testing.Short() {
		t.Skip("table4 and endtoend campaigns in -short mode")
	}
	var runners []experiments.Runner
	for _, id := range []string{"table4", "endtoend"} {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("%s experiment not registered", id)
		}
		runners = append(runners, r)
	}
	timings := newTimingCollector(runners, 1)
	start := time.Now()
	if _, err := writeExperimentsObserved(io.Discard, runners, 42, 1, nil, timings); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()
	path := filepath.Join(t.TempDir(), "timing.json")
	if err := timings.writeFile(path, wall); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep timingReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.PerReduce) != 2 || rep.PerReduce[0].Experiment != "endtoend" || rep.PerReduce[1].Experiment != "table4" {
		t.Fatalf("reduce rows %+v, want endtoend's and table4's", rep.PerReduce)
	}
	seen := map[string]int{}
	for _, u := range rep.PerUnit {
		if u.Unit != seen[u.Experiment] {
			t.Fatalf("%s unit row %d (%s), want unit %d", u.Experiment, u.Unit, u.Key, seen[u.Experiment])
		}
		seen[u.Experiment]++
	}
	for _, r := range runners {
		if n := len(r.Plan(42).Units); seen[r.ID] != n {
			t.Fatalf("%s: %d unit rows for %d units", r.ID, seen[r.ID], n)
		}
	}
	if len(rep.PerDelivery) != len(runners) {
		t.Fatalf("delivery rows %+v, want one per experiment", rep.PerDelivery)
	}
	prev := 0.0
	for i, d := range rep.PerDelivery {
		if d.Experiment != runners[i].ID || d.DeliveredSeconds < prev || d.DeliveredSeconds > rep.WallSeconds {
			t.Fatalf("delivery rows %+v, want %s's at %d, non-decreasing and within the %.3fs wall",
				rep.PerDelivery, runners[i].ID, i, rep.WallSeconds)
		}
		prev = d.DeliveredSeconds
	}
	covered := rep.TotalUnitSeconds + rep.TotalReduceSeconds
	if math.Abs(covered-rep.WallSeconds) > 0.05*rep.WallSeconds {
		t.Fatalf("units (%.3fs) and reduces (%.3fs) account for %.3fs of a %.3fs wall, want within 5%%",
			rep.TotalUnitSeconds, rep.TotalReduceSeconds, covered, rep.WallSeconds)
	}
}
