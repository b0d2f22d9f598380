package obs

// The service plane: a dependency-free metrics registry for the
// planner daemon. Counters and gauges are single atomics, histograms
// are fixed-bucket atomic arrays with a CAS-folded float sum, and
// func-metrics read a value lazily at scrape time — so instrumenting
// an existing atomic counter costs nothing on the hot path at all.
// Exposition is the Prometheus text format (version 0.0.4), the least
// common denominator every scraper understands.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultLatencyBuckets spans sub-millisecond cache hits to
// multi-minute fleet simulations.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// metric is one registered family: a name/type/help header plus its
// sample lines.
type metric interface {
	name() string
	typeName() string
	helpText() string
	writeSamples(b *strings.Builder)
}

// Registry holds metric families in registration order. Register*
// methods panic on a duplicate name — metric names are compile-time
// constants, so a collision is a programming error, not a runtime
// condition.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name()] {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name()))
	}
	r.names[m.name()] = true
	r.metrics = append(r.metrics, m)
}

// WritePrometheus writes every family in registration order in the
// Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name(), m.helpText())
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name(), m.typeName())
		m.writeSamples(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample value: integral floats print without a
// mantissa, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing atomic int64.
type Counter struct {
	nm, help string
	v        atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) name() string     { return c.nm }
func (c *Counter) typeName() string { return "counter" }
func (c *Counter) helpText() string { return c.help }
func (c *Counter) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.nm, c.v.Load())
}

// Gauge is an atomic int64 that can go up and down.
type Gauge struct {
	nm, help string
	v        atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string     { return g.nm }
func (g *Gauge) typeName() string { return "gauge" }
func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", g.nm, g.v.Load())
}

// funcMetric exports a value read lazily at scrape time — the
// zero-hot-path-cost way to surface a counter some other subsystem
// already maintains (the planner's cache atomics, the pool's stats).
type funcMetric struct {
	nm, help, typ string
	fn            func() float64
}

// NewCounterFunc registers a counter whose value is fn() at scrape
// time. fn must be monotonic and safe to call from any goroutine.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{nm: name, help: help, typ: "gauge", fn: fn})
}

func (f *funcMetric) name() string     { return f.nm }
func (f *funcMetric) typeName() string { return f.typ }
func (f *funcMetric) helpText() string { return f.help }
func (f *funcMetric) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", f.nm, formatValue(f.fn()))
}

// Histogram is a fixed-bucket latency histogram: per-bucket atomic
// counts plus a CAS-folded float64 sum. Observe is allocation-free — a
// linear scan over ~17 bounds and three atomic ops.
type Histogram struct {
	nm, help   string
	label, val string // optional single label pair ("" = unlabeled)
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	count      atomic.Int64
}

func newHistogram(name, help, label, val string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	return &Histogram{
		nm: name, help: help, label: label, val: val,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, help, "", "", bounds)
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) name() string     { return h.nm }
func (h *Histogram) typeName() string { return "histogram" }
func (h *Histogram) helpText() string { return h.help }

// labelPrefix renders `{label="value",` or `{` for bucket lines, and
// `{label="value"}` or “ for sum/count lines.
func (h *Histogram) writeSamples(b *strings.Builder) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		h.bucketLine(b, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	h.bucketLine(b, "+Inf", cum)
	suffix := ""
	if h.label != "" {
		suffix = fmt.Sprintf("{%s=%q}", h.label, h.val)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", h.nm, suffix, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", h.nm, suffix, h.count.Load())
}

func (h *Histogram) bucketLine(b *strings.Builder, le string, cum int64) {
	if h.label != "" {
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", h.nm, h.label, h.val, le, cum)
	} else {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.nm, le, cum)
	}
}

// HistogramVec is a family of histograms distinguished by one label
// (e.g. request latency by endpoint). Children are usually created
// once at wiring time via With, so the observe path never touches the
// vec's lock.
type HistogramVec struct {
	nm, help, label string
	bounds          []float64

	mu       sync.Mutex
	children map[string]*Histogram
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{
		nm: name, help: help, label: label,
		bounds:   bounds,
		children: make(map[string]*Histogram),
	}
	r.register(v)
	return v
}

// With returns (creating if needed) the child histogram for the given
// label value. Callers on hot paths should capture the child once.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[value]; ok {
		return h
	}
	h := newHistogram(v.nm, v.help, v.label, value, v.bounds)
	v.children[value] = h
	return h
}

func (v *HistogramVec) name() string     { return v.nm }
func (v *HistogramVec) typeName() string { return "histogram" }
func (v *HistogramVec) helpText() string { return v.help }
func (v *HistogramVec) writeSamples(b *strings.Builder) {
	v.mu.Lock()
	vals := make([]string, 0, len(v.children))
	for val := range v.children {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	children := make([]*Histogram, len(vals))
	for i, val := range vals {
		children[i] = v.children[val]
	}
	v.mu.Unlock()
	for _, h := range children {
		h.writeSamples(b)
	}
}
