package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots instead of comparing")

// The golden tests lock the evaluation's numbers down: `repro -exp X`
// stdout at seed 42 must match its committed snapshot byte for byte,
// so refactors of the engine, the experiments, or the renderers cannot
// silently drift a single digit. "all" is the paper's artifact set; the
// extras live outside it (the paper never published them) and get one
// snapshot each. Regret and elastic must also render byte-identically
// at -parallel 1 and 8: the predictive scheduler's history-fed fits and
// the synchronous dynamic-batching kernel are the newest places a
// worker-count dependence could sneak in. After an intentional change,
// regenerate every snapshot with
//
//	go test ./cmd/repro -run Golden -update
//
// and review the snapshot diff like any other code change. CI
// cross-checks the snapshots against live `repro` output.
func TestReproAllMatchesGolden(t *testing.T)       { checkGolden(t, "all") }
func TestReproFleetMatchesGolden(t *testing.T)     { checkGolden(t, "fleet") }
func TestReproProvidersMatchesGolden(t *testing.T) { checkGolden(t, "providers") }
func TestReproRegretMatchesGolden(t *testing.T)    { checkGolden(t, "regret") }
func TestReproElasticMatchesGolden(t *testing.T)   { checkGolden(t, "elastic") }

// goldens is the snapshot table: per -exp selection (an experiment ID
// or "all"), its file under testdata/ and whether the render must also
// be byte-identical at -parallel 1 and 8.
var goldens = map[string]struct {
	golden   string
	parallel bool
}{
	"all":       {"all.golden", false},
	"fleet":     {"fleet.golden", false},
	"providers": {"providers.golden", false},
	"regret":    {"regret.golden", true},
	"elastic":   {"elastic.golden", true},
}

// checkGolden renders exp's row of goldens and byte-compares it to its
// snapshot, or rewrites the snapshot under -update.
func checkGolden(t *testing.T, exp string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("full %s campaign in -short mode", exp)
	}
	runners := experiments.All()
	if exp != "all" {
		r, ok := experiments.ByID(exp)
		if !ok {
			t.Fatalf("%s experiment not registered", exp)
		}
		runners = []experiments.Runner{r}
	}
	render := func(workers int, col *obs.Collector) []byte {
		var buf bytes.Buffer
		printed, err := writeExperimentsObserved(&buf, runners, 42, workers, col, nil)
		if err != nil {
			t.Fatal(err)
		}
		if printed != len(runners) {
			t.Fatalf("rendered %d experiments, want %d", printed, len(runners))
		}
		return buf.Bytes()
	}
	// An extra's golden render also carries a trace collector (the
	// -parallel 8 one where there are two), so its trace invariants are
	// checked without another render and the traced output must still
	// match the snapshot. TestTracedAllMatchesGolden traces "all".
	var col *obs.Collector
	if exp != "all" {
		col = obs.NewCollector()
	}
	row := goldens[exp]
	var got []byte
	if row.parallel {
		got = render(1, nil)
		if wide := render(8, col); !bytes.Equal(got, wide) {
			t.Fatalf("-parallel 8 changed %s output:\n%s", exp, firstDivergence(wide, got))
		}
	} else {
		got = render(runtime.GOMAXPROCS(0), col)
	}
	if col != nil {
		checkTraceInvariants(t, col)
	}

	path := filepath.Join("testdata", row.golden)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("repro -exp %s drifted from the committed snapshot:\n%s\nif the change is intentional, regenerate with -update and review the diff",
			exp, firstDivergence(got, want))
	}
}

// firstDivergence renders the first line where got and want differ,
// with a little context, so a drifted digit is findable without
// eyeballing ~20 artifacts.
func firstDivergence(got, want []byte) string {
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	return fmt.Sprintf("line %d: output lengths differ (got %d lines, want %d)", n+1, len(gotLines), len(wantLines))
}

// TestWriteExperimentsIsWorkerCountInvariant re-renders a cheap subset
// at several pool sizes and demands byte-identical output — the
// property the golden snapshot relies on to be stable in CI.
func TestWriteExperimentsIsWorkerCountInvariant(t *testing.T) {
	ids := []string{"table1", "fig5", "fig10"}
	if testing.Short() {
		ids = []string{"fig5"}
	}
	var runners []experiments.Runner
	for _, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		runners = append(runners, r)
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		if _, err := writeExperiments(&buf, runners, 7, workers); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(1)
	for _, workers := range []int{2, 8} {
		if !bytes.Equal(render(workers), want) {
			t.Fatalf("-parallel %d changed rendered output", workers)
		}
	}
}
