package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
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
// row per unit, experiment-major order, totals consistent.
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
	if !bytes.Contains(raw, []byte(`"experiment": "fig5"`)) || !bytes.Contains(raw, []byte(`"per_unit"`)) {
		t.Fatalf("timing artifact missing expected fields:\n%s", raw)
	}
}

// TestTimingListsSearchUnits checks that Table IV's SVR grid search is
// visible to -timing-out: it runs as the experiment's second stage, one
// unit per (kernel, fold) — 5 RBF bandwidths × 5 folds — reported under
// table4 after its dataset unit, rather than as unattributed reduce
// time.
func TestTimingListsSearchUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("Table IV grid search in -short mode")
	}
	r, ok := experiments.ByID("table4")
	if !ok {
		t.Fatal("table4 experiment not registered")
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
	var rep timingReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	search := 0
	for i, u := range rep.PerUnit {
		if u.Experiment != "table4" || u.Unit != i {
			t.Fatalf("row %d is %s unit %d, want table4 unit %d", i, u.Experiment, u.Unit, i)
		}
		if strings.HasPrefix(u.Key, "svr-rbf/rbf(") && strings.Contains(u.Key, "/fold") {
			search++
		}
	}
	if search != 25 || rep.Units != 26 {
		t.Fatalf("timing lists %d search units among %d, want 25 (kernel, fold) units after the dataset unit:\n%s", search, rep.Units, raw)
	}
}
