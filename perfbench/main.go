// Command perfbench is the repository's benchmark. It builds nothing
// itself: perfbench/run.sh builds it together with cmd/repro and
// cmd/pland, then runs it from the checkout root.
//
// Workloads:
//
//	paper_all  repro -exp all: the paper's artifact set
//	extras     repro -exp <id> for revmodels, fleet, providers, regret, elastic
//	pland_mix  a closed loop of 2 connections against pland over loopback HTTP
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 it times calls into every layer from its own code
// (in-process campaigns, direct calls into regress, core, train, sim,
// experiments, fleet and planner, and a traced pland cycle) and prints
// the per-layer metrics; the workload's own work also runs untraced, as
// the base of process.cpu_s and trace.overhead.
// Either way the last line of stdout is one JSON object:
//
//	{"correct":…, "attempted":…, "failed":…, "metrics":{name: {"value":…, "unit":…}}}
//
// See perfbench/README.md for every metric's definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

func main() { os.Exit(run()) }

const (
	// runLimit bounds one run; the slowest (a traced run) takes about a
	// minute on 2 cores.
	runLimit = 170 * time.Second
	// minPasses is the fewest passes an untraced batch run makes, so its
	// medians resist one disturbed pass.
	minPasses = 3
)

type bench struct {
	root, bin string
	workload  string
	seed      int64
	duration  time.Duration
}

func (b *bench) binPath(name string) string { return filepath.Join(b.bin, name) }

// another reports whether one more pass, taking about as long as the
// last one, still ends within the run's measuring time.
func (b *bench) another(start time.Time, last float64) bool {
	return time.Since(start).Seconds()+last <= b.duration.Seconds()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (one experiment rendered, one request
// answered, one output compared) and the ones that failed.
type tally struct {
	attempted, failed int
}

// op records one operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err)
	}
}

// note reports a failure on stderr without counting an operation.
func (t *tally) note(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", err)
}

func run() int {
	var (
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", ".bench_build/perfbench", "directory holding the built repro and pland binaries")
		workload = flag.String("workload", "", "paper_all, extras or pland_mix")
		seed     = flag.Int64("seed", goldenSeed, "workload seed")
		seconds  = flag.Int("seconds", 25, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	switch *workload {
	case "paper_all", "extras", "pland_mix":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (paper_all, extras, pland_mix)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{root: absRoot, bin: *bin, workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	var t tally
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced(ctx, &t)
	} else {
		metrics, err = b.untraced(ctx, &t)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if t.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	out, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// untraced measures the end-to-end metrics of the workload.
func (b *bench) untraced(ctx context.Context, t *tally) (map[string]metric, error) {
	if b.workload == "pland_mix" {
		cycles, err := b.runPland(ctx, t)
		if err != nil {
			return nil, err
		}
		var setup, steady, probes [][]float64
		var rss []float64
		for _, c := range cycles {
			setup = append(setup, c.setupSegs)
			steady = append(steady, c.passSegs...)
			probes = append(probes, c.passProbes...)
			rss = append(rss, float64(c.rssKB)/1024)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pland_mix steady pass: %.3fs as the sum of fastest segments, %.3fs in probe times\n", fastestSum(steady), probeScaledSum(steady, probes))
		return endToEnd(probeScaledSum(steady, probes), fastestSum(setup), stats.Median(rss)), nil
	}
	run, err := b.runBatch(ctx, t)
	if err != nil {
		return nil, err
	}
	var rss []float64
	for _, p := range run.passes {
		rss = append(rss, float64(p.rssKB)/1024)
	}
	return endToEnd(run.wall(), run.setup(), stats.Median(rss)), nil
}

func endToEnd(wall, setup, rssMB float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {wall, "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}
