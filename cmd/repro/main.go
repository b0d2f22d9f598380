// Command repro regenerates the paper's tables and figures on the
// simulated substrate.
//
// Experiments run as campaigns on a worker pool: every independent
// replication gets its own single-threaded simulation kernel and a
// seed derived from -seed, so output is byte-identical for any
// -parallel value. Timing goes to stderr to keep stdout canonical.
//
// Usage:
//
//	repro -list
//	repro -exp table1
//	repro -exp all [-seed 42] [-parallel 8]
//	repro -exp all -trace-out trace.ndjson   # sim-plane event trace
//	repro -exp all -timing-out timing.json   # per-unit, per-reduce and delivery wall timing
//	repro -exp sweep -cpuprofile cpu.pprof -memprofile mem.pprof
//	repro -exp revmodels   # extras run individually, outside "all"
//	repro -exp fleet       # multi-job scheduler comparison (extra)
//	repro -exp regret      # schedulers vs clairvoyant oracle (extra)
//	repro -exp elastic     # elastic vs static mixed clusters (extra)
//
// -trace-out records every session's sim-plane events (revocations,
// checkpoints, rebalances, elastic resizes, speed samples — see
// internal/obs) as NDJSON, units sorted by key: the trace is a pure
// function of (experiment set, seed), byte-identical at any -parallel,
// and never perturbs the primary output. -timing-out is the service
// plane's counterpart: per-unit and per-reduce wall-clock timings, and
// when each experiment's result was ready to print, as JSON — useful
// for profiling the campaign itself, by construction excluded from
// every simulated number.
//
// "all" runs exactly the paper's artifact set (the stream the golden
// snapshot pins); extra experiments — revmodels, the revocation-model
// comparison over the pluggable lifetime regimes; fleet, the
// multi-job scheduler comparison on a capacity-constrained transient
// pool; providers, single-market fleets vs cross-market arbitrage;
// regret, every scheduler scored against a clairvoyant per-job
// oracle; and elastic, static vs risk-driven resizing of a mixed-GPU
// cluster under each revocation regime — are listed by -list and run
// by id, each golden-pinned extra under its own testdata snapshot.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("exp", "", "experiment id to run, or 'all'")
		seed       = flag.Int64("seed", 42, "base random seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for campaign replications")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		traceOut   = flag.String("trace-out", "", "write the sim-plane event trace (NDJSON, deterministic) to this file")
		timingOut  = flag.String("timing-out", "", "write per-unit, per-reduce and delivery wall-clock timings (JSON) to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// Profiles are the service plane's service plane: they observe the
	// process, never the simulation, so enabling them cannot perturb
	// any experiment output.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "repro: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live + cumulative allocs cleanly
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "repro: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		for _, r := range experiments.Extras() {
			fmt.Printf("%-10s %s (not in \"all\")\n", r.ID, r.Title)
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "repro: -exp <id>|all required (see -list)")
		return 2
	}

	runners := experiments.All()
	if *exp != "all" {
		r, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (see -list)\n", *exp)
			return 2
		}
		runners = []experiments.Runner{r}
	}

	var col *obs.Collector
	if *traceOut != "" {
		col = obs.NewCollector()
	}
	var timings *timingCollector
	if *timingOut != "" {
		timings = newTimingCollector(runners, *parallel)
	}

	start := time.Now()
	printed, err := writeExperimentsObserved(os.Stdout, runners, *seed, *parallel, col, timings)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}
	if col != nil {
		if err := writeTraceFile(*traceOut, col); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "repro: wrote %d trace events across %d units to %s\n",
			col.Len(), len(col.Units()), *traceOut)
	}
	if timings != nil {
		if err := timings.writeFile(*timingOut, time.Since(start).Seconds()); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "repro: wrote unit timings to %s\n", *timingOut)
	}
	fmt.Fprintf(os.Stderr, "repro: %d experiment(s) in %.1fs (-parallel %d)\n",
		printed, time.Since(start).Seconds(), *parallel)
	return 0
}

// writeTraceFile exports the collector's deterministic NDJSON stream.
func writeTraceFile(path string, col *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unitTiming is one row of the -timing-out artifact: one campaign
// unit's wall-clock execution time. Wall-clock is the service plane —
// it never feeds a simulated number.
type unitTiming struct {
	Experiment string  `json:"experiment"`
	Unit       int     `json:"unit"`
	Key        string  `json:"key"`
	Seconds    float64 `json:"seconds"`
}

// reduceTiming is one experiment's reduce: the analysis that turns its
// unit outputs into the rendered result, model fits included.
type reduceTiming struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
}

// deliveryTiming is when one experiment's result was handed over for
// printing: the seconds from the engine's start to its done call.
type deliveryTiming struct {
	Experiment       string  `json:"experiment"`
	DeliveredSeconds float64 `json:"delivered_seconds"`
}

// timingCollector gathers per-unit and per-experiment reduce timings
// from the wrappers timePlan puts around each plan's units and Reduce,
// which may run on any worker goroutine, and each experiment's delivery
// time.
type timingCollector struct {
	ids      []string
	parallel int

	mu         sync.Mutex
	units      []unitTiming
	reduces    []reduceTiming
	deliveries []deliveryTiming
}

func newTimingCollector(runners []experiments.Runner, parallel int) *timingCollector {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.ID
	}
	return &timingCollector{ids: ids, parallel: parallel}
}

// timePlan wraps each of p's units and its Reduce so that each call
// records its wall-clock time under runner index plan. Results are
// untouched.
func (t *timingCollector) timePlan(plan int, p *campaign.Plan) {
	for i := range p.Units {
		run, key := p.Units[i].Run, p.Units[i].Key
		p.Units[i].Run = func(seed int64) (any, error) {
			start := time.Now()
			defer func() {
				t.mu.Lock()
				defer t.mu.Unlock()
				t.units = append(t.units, unitTiming{Experiment: t.ids[plan], Unit: i, Key: key, Seconds: time.Since(start).Seconds()})
			}()
			return run(seed)
		}
	}
	reduce := p.Reduce
	if reduce == nil {
		return
	}
	p.Reduce = func(outs []any) (any, error) {
		start := time.Now()
		defer func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.reduces = append(t.reduces, reduceTiming{Experiment: t.ids[plan], Seconds: time.Since(start).Seconds()})
		}()
		return reduce(outs)
	}
}

// delivered records that runner plan's result was handed over seconds
// after the engine started.
func (t *timingCollector) delivered(plan int, seconds float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deliveries = append(t.deliveries, deliveryTiming{Experiment: t.ids[plan], DeliveredSeconds: seconds})
}

// timingReport is the -timing-out JSON shape: the campaign's shape and
// totals plus every unit's and every reduce's timing, sorted by
// experiment (units then by index) so the artifact is stable however
// the pool scheduled the work, and every experiment's delivery time in
// declaration order, the order results are printed in.
type timingReport struct {
	Parallel           int              `json:"parallel"`
	Units              int              `json:"units"`
	TotalUnitSeconds   float64          `json:"total_unit_seconds"`
	TotalReduceSeconds float64          `json:"total_reduce_seconds"`
	WallSeconds        float64          `json:"wall_seconds"`
	PerUnit            []unitTiming     `json:"per_unit"`
	PerReduce          []reduceTiming   `json:"per_reduce"`
	PerDelivery        []deliveryTiming `json:"per_delivery"`
}

func (t *timingCollector) writeFile(path string, wallSeconds float64) error {
	t.mu.Lock()
	units := make([]unitTiming, len(t.units))
	copy(units, t.units)
	reduces := make([]reduceTiming, len(t.reduces))
	copy(reduces, t.reduces)
	deliveries := make([]deliveryTiming, len(t.deliveries))
	copy(deliveries, t.deliveries)
	t.mu.Unlock()
	order := func(i, j int) bool {
		if units[i].Experiment != units[j].Experiment {
			return units[i].Experiment < units[j].Experiment
		}
		return units[i].Unit < units[j].Unit
	}
	sort.Slice(units, order)
	sort.Slice(reduces, func(i, j int) bool { return reduces[i].Experiment < reduces[j].Experiment })
	total, reduceTotal := 0.0, 0.0
	for _, u := range units {
		total += u.Seconds
	}
	for _, r := range reduces {
		reduceTotal += r.Seconds
	}
	rep := timingReport{
		Parallel:           t.parallel,
		Units:              len(units),
		TotalUnitSeconds:   total,
		TotalReduceSeconds: reduceTotal,
		WallSeconds:        wallSeconds,
		PerUnit:            units,
		PerReduce:          reduces,
		PerDelivery:        deliveries,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExperiments renders the selected experiments to w in order,
// streaming each one as soon as it and everything before it finished.
// This is the canonical stdout of `repro -exp all`; the golden test
// snapshots exactly this stream. The first failed experiment stops the
// batch; errors from campaigns still in flight at that moment are
// joined into the returned error rather than dropped.
func writeExperiments(w io.Writer, runners []experiments.Runner, seed int64, parallel int) (int, error) {
	return writeExperimentsObserved(w, runners, seed, parallel, nil, nil)
}

// writeExperimentsObserved is writeExperiments with the observability
// planes attached: a non-nil collector threads a sim-plane recorder
// into every traceable unit (the primary output stays byte-identical —
// recording draws no randomness and schedules no events), and a
// non-nil timing collector receives each unit's wall-clock execution
// time, each experiment's reduce time and the time its result was
// handed over for printing.
func writeExperimentsObserved(w io.Writer, runners []experiments.Runner, seed int64, parallel int, col *obs.Collector, timings *timingCollector) (int, error) {
	// One batch across all selected experiments, so the tail of one
	// campaign overlaps the head of the next.
	plans := make([]*campaign.Plan, len(runners))
	for i, r := range runners {
		plans[i] = r.PlanTraced(seed, col)
		if timings != nil {
			timings.timePlan(i, plans[i])
		}
	}
	printed := 0
	var failed error
	start := time.Now()
	dropped := campaign.Engine{Workers: parallel}.RunEach(plans, func(i int, o campaign.Outcome) bool {
		if timings != nil {
			timings.delivered(i, time.Since(start).Seconds())
		}
		if o.Err != nil {
			failed = fmt.Errorf("%s: %w", runners[i].ID, o.Err)
			return false
		}
		fmt.Fprintf(w, "== %s — %s\n\n", runners[i].ID, runners[i].Title)
		fmt.Fprintln(w, o.Value.(experiments.Result).String())
		printed++
		return true
	})
	return printed, errors.Join(failed, dropped)
}
