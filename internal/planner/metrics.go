package planner

// Service-plane metrics: the planner daemon's cache, queue, pool, and
// request-latency series in Prometheus text form. Everything here is
// wall-clock and observational — func-metrics read the atomics the
// planner already maintains lazily at scrape time, so the simulation
// hot paths pay nothing for being observable, and no number in this
// file can reach a simulation result.

import "repro/internal/obs"

// Metrics returns the planner's metric registry, building it on first
// use. The registry is safe for concurrent scrapes and lives as long
// as the planner.
func (p *Planner) Metrics() *obs.Registry {
	p.metricsOnce.Do(func() {
		r := obs.NewRegistry()
		r.NewCounterFunc("pland_cache_hits_total",
			"Queries answered straight from the result cache.",
			func() float64 { return float64(p.hits.Load()) })
		r.NewCounterFunc("pland_cache_misses_total",
			"Simulations actually run (singleflight leaders).",
			func() float64 { return float64(p.misses.Load()) })
		r.NewCounterFunc("pland_cache_coalesced_total",
			"Queries that joined an identical in-flight simulation.",
			func() float64 { return float64(p.coalesced.Load()) })
		r.NewCounterFunc("pland_cache_evictions_total",
			"Cache entries displaced by capacity.",
			func() float64 { return float64(p.evictions.Load()) })
		r.NewGaugeFunc("pland_cache_entries",
			"Current result-cache population.",
			func() float64 { return float64(p.results.Len()) })
		r.NewGaugeFunc("pland_sims_inflight",
			"Simulation units executing right now.",
			func() float64 { return float64(p.inflight.Load()) })
		r.NewCounterFunc("pland_queries_rejected_total",
			"Queries that returned without an answer because their measurement was interrupted.",
			func() float64 { return float64(p.rejections.Load()) })
		r.NewGaugeFunc("pland_pool_workers",
			"Shared simulation pool size.",
			func() float64 { return float64(p.pool.Stats().Workers) })
		r.NewGaugeFunc("pland_pool_queue_capacity",
			"Bounded admission queue capacity.",
			func() float64 { return float64(p.pool.Stats().QueueCapacity) })
		r.NewGaugeFunc("pland_pool_queue_depth",
			"Jobs waiting in the admission queue right now.",
			func() float64 { return float64(p.pool.Stats().QueueDepth) })
		r.NewCounterFunc("pland_pool_jobs_total",
			"Pool jobs completed.",
			func() float64 { return float64(p.pool.Stats().JobsRun) })
		r.NewCounterFunc("pland_pool_wait_seconds_total",
			"Total queue wait (accept to start) across completed pool jobs.",
			func() float64 { return p.pool.Stats().WaitSeconds })
		r.NewCounterFunc("pland_pool_busy_seconds_total",
			"Total execution wall time across completed pool jobs.",
			func() float64 { return p.pool.Stats().BusySeconds })
		p.httpLatency = r.NewHistogramVec("pland_http_request_seconds",
			"HTTP request latency by endpoint.",
			"endpoint", obs.DefaultLatencyBuckets)
		p.registry = r
	})
	return p.registry
}
