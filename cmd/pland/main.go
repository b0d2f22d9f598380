// Command pland is the planning daemon: a long-running HTTP/JSON
// service that answers scenario queries — "cheapest config to train
// model M in ≤ H hours", arbitrary sweep grids, single-scenario
// ETA/cost estimates, and multi-job fleet simulations on a shared
// capacity-constrained transient pool (POST /v1/fleet, NDJSON per-job
// results plus aggregate stats) — against the simulated cloud, the
// interactive form of the paper's decision-support result (Eqs. 4–5,
// Tables V–VII).
//
// Queries dispatch onto one shared simulation worker pool with a
// bounded admission queue. One seed-keyed result table holds each
// measurement, first in flight, so identical concurrent queries share
// a single simulation, then cached least-recently-used, so no
// scenario is ever simulated twice.
//
// Usage:
//
//	pland [-addr 127.0.0.1:8642] [-workers 8] [-queue 64] [-cache 4096]
//	      [-trace name=file.csv ...] [-pprof]
//
// GET /metrics exposes the service-plane registry (cache hit/miss
// counters, admission queue depth, per-endpoint request latency, pool
// utilization) in Prometheus text form; -pprof additionally mounts
// net/http/pprof's profiling handlers under /debug/pprof/ — off by
// default, since the profiler endpoints are not something to expose
// beyond a trusted network.
//
// Each -trace flag (repeatable) registers a revocation-trace CSV — the
// format cmd/revstudy exports and the paper's public dataset uses — as
// an empirical lifetime model under the given name: queries select it
// with "rev_model":"name" (or "rev_models" on grids) and simulate
// against bootstrap resamples of the recorded lifetimes instead of the
// calibrated distributions. GET /v1/catalog lists every registered
// model. See README.md "Revocation models" for the full flow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/planner"
	"repro/internal/trace"
)

// traceFlags collects repeated -trace name=path values.
type traceFlags []string

func (t *traceFlags) String() string { return strings.Join(*t, ",") }
func (t *traceFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// registerTrace loads one -trace registration: parse the CSV, build
// the bootstrap replay model, and make it selectable by name.
func registerTrace(arg string) error {
	name, path, ok := strings.Cut(arg, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("-trace wants name=file.csv, got %q", arg)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadRecordsCSV(f)
	if err != nil {
		return err
	}
	m, err := trace.EmpiricalLifetimeModel(name, recs)
	if err != nil {
		return err
	}
	// Registration panics on a conflict (programmer error elsewhere);
	// a user retyping a builtin name on the command line is a usage
	// error, so pre-check it here. Startup is single-threaded, so the
	// check-then-register pair cannot race.
	if _, err := cloud.LookupLifetimeModel(name); err == nil {
		return fmt.Errorf("-trace name %q is already a registered lifetime model", name)
	}
	cloud.RegisterLifetimeModel(m)
	fmt.Fprintf(os.Stderr, "pland: lifetime model %q replays %d records over %d cells: %s\n",
		name, len(recs), len(m.CoveredCells()), strings.Join(m.CoveredCells(), ", "))
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8642", "listen address")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "shared simulation pool size")
		queue     = flag.Int("queue", 64, "bounded admission queue depth")
		cache     = flag.Int("cache", 4096, "scenario result cache entries (LRU)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		traces    traceFlags
	)
	flag.Var(&traces, "trace",
		"register a revocation-trace CSV (revstudy format) as an empirical lifetime model, as name=file.csv; repeatable, selected per query via rev_model")
	flag.Parse()

	for _, arg := range traces {
		if err := registerTrace(arg); err != nil {
			fmt.Fprintf(os.Stderr, "pland: %v\n", err)
			return 2
		}
	}

	p := planner.New(planner.Config{Workers: *workers, QueueDepth: *queue, CacheSize: *cache})
	defer p.Close()

	// The planner's mux serves everything; -pprof wraps it in an outer
	// mux that adds the profiler endpoints explicitly (no blank import:
	// registering on DefaultServeMux would mount the profiler whether
	// the operator asked or not).
	handler := p.Handler()
	if *pprofFlag {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		fmt.Fprintln(os.Stderr, "pland: pprof mounted at /debug/pprof/")
	}

	// No read/write timeouts: sweeps stream NDJSON for as long as the
	// simulations take. Header reads are bounded so an idle half-open
	// connection cannot pin a goroutine.
	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "pland: listening on http://%s (workers=%d queue=%d cache=%d)\n",
		*addr, *workers, *queue, *cache)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "pland: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pland: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "pland: shutdown: %v\n", err)
			return 1
		}
		return 0
	}
}
