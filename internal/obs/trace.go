// Package obs is the repo's observability layer, split into two
// planes that must never be confused:
//
//   - The sim plane (this file): structured event traces recorded by
//     the training kernel, the session manager, and the fleet as a
//     simulation runs. Events are stamped with *simulation* time and
//     carry only values derived from sim state, so a trace is a pure
//     function of (config, seed) — byte-reproducible at any worker
//     count and golden-testable like any other output. Recording draws
//     no randomness and schedules no events, so a traced run's results
//     are byte-identical to an untraced run's.
//
//   - The service plane (metrics.go): wall-clock counters, gauges, and
//     latency histograms for the long-running planner daemon. Those
//     numbers describe the service (cache hit rates, queue depth,
//     request latency), never the simulated world, and are exported in
//     Prometheus text form.
//
// This is the reproduction of CM-DARE's own posture: the paper's
// performance tracker runs on every training server, logs training
// speed, and feeds the profiler (Fig. 1, steps 4 and 7). A recorder is
// a session's only timeline: the training kernel closes its windowed
// speeds onto it beside checkpoints, revocations and joins, and every
// layer above adds its own events to the same stream.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Event is one sim-plane trace entry. Field order is the NDJSON field
// order (encoding/json emits struct fields in declaration order), so
// traces are stable byte-for-byte across runs and Go versions.
//
// The kind vocabulary, by emitting layer:
//
//	train:   checkpoint, revocation, join, rollback, chief-handoff,
//	         shrink, rebalance, speed
//	manager: startup, replace, replace-blocked, elastic-shrink,
//	         elastic-grow, and revocation of an instance whose worker
//	         had not joined (no Worker; the instance in Detail)
//	fleet:   job-arrive, job-place, job-done
type Event struct {
	// T is the simulation time in seconds.
	T float64 `json:"t"`
	// Kind names the event (see the vocabulary above).
	Kind string `json:"kind"`
	// Scope qualifies the emitter, e.g. "job3" for one fleet job's
	// session; empty for a standalone session.
	Scope string `json:"scope,omitempty"`
	// Worker names the cluster worker involved, when one is.
	Worker string `json:"worker,omitempty"`
	// Step is the global training step at the event.
	Step int64 `json:"step,omitempty"`
	// Risk carries the predicted revocation-risk ratio that triggered
	// an elastic resize decision.
	Risk float64 `json:"risk,omitempty"`
	// Value is the event's scalar payload: windowed steps/s for speed
	// samples, startup seconds for startups, retry seconds for blocked
	// replacements.
	Value float64 `json:"value,omitempty"`
	// Detail is a small human-readable payload, e.g. the new batch
	// shares after a rebalance or the cell an elastic grow picked.
	Detail string `json:"detail,omitempty"`
}

// Recorder collects one simulation's trace. It is single-threaded like
// the kernel it observes: all Record calls must come from the one
// simulation goroutine. A nil *Recorder is a valid no-op sink — every
// method is nil-safe — so instrumented code records unconditionally
// and pays one pointer test when tracing is off.
type Recorder struct {
	st    *recorderState
	scope string
}

// recorderState is the buffer shared by a recorder and its scoped
// children.
type recorderState struct {
	events []Event
}

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder {
	return &Recorder{st: &recorderState{}}
}

// Scoped returns a recorder appending to the same trace with the given
// scope (nested scopes join with "/"). Scoped on a nil recorder is
// nil, so scope plumbing needs no branches either.
func (r *Recorder) Scoped(scope string) *Recorder {
	if r == nil {
		return nil
	}
	if r.scope != "" {
		scope = r.scope + "/" + scope
	}
	return &Recorder{st: r.st, scope: scope}
}

// Record appends one event, stamping the recorder's scope. On a nil
// recorder it is a no-op. The hot path is one append — no locking, no
// formatting, no allocation beyond the amortized slice growth.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.scope != "" {
		if e.Scope == "" {
			e.Scope = r.scope
		} else {
			e.Scope = r.scope + "/" + e.Scope
		}
	}
	r.st.events = append(r.st.events, e)
}

// Len reports how many events were recorded. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.st.events)
}

// Events returns a copy of the trace in record order. Nil-safe.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.st.events))
	copy(out, r.st.events)
	return out
}

// EventsOf returns the recorded events of one kind, in record order.
// It reads the shared buffer, so it spans every scope recording into
// it: the recorder's own, its parent's and its siblings'. Nil-safe.
func (r *Recorder) EventsOf(kind string) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.st.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// WriteNDJSON writes the trace as one JSON object per line.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := range r.st.events {
		if err := enc.Encode(&r.st.events[i]); err != nil {
			return err
		}
	}
	return nil
}

// Collector gathers the traces of a whole campaign: one recorder per
// unit, keyed by a caller-chosen unit key. Recorders are created at
// plan-declaration time (single-threaded) and each is then written
// only by its own unit's goroutine, but Unit is mutex-guarded anyway
// so creation order never matters. Export sorts units by key, so the
// combined NDJSON stream is byte-identical at any -parallel value.
type Collector struct {
	mu    sync.Mutex
	units map[string]*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{units: make(map[string]*Recorder)}
}

// Unit returns (creating if needed) the recorder for the given unit
// key.
func (c *Collector) Unit(key string) *Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.units[key]; ok {
		return r
	}
	r := NewRecorder()
	c.units[key] = r
	return r
}

// Units lists the unit keys in sorted order.
func (c *Collector) Units() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.units))
	for k := range c.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len reports the total number of events across all units.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.units {
		n += len(r.st.events)
	}
	return n
}

// unitEvent is one collector NDJSON line: the owning unit's key,
// then the event fields flattened.
type unitEvent struct {
	Unit string `json:"unit"`
	Event
}

// WriteNDJSON writes every unit's trace, units in sorted key order and
// events in record order within each unit — a deterministic stream
// regardless of how the campaign was scheduled.
func (c *Collector) WriteNDJSON(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.units))
	for k := range c.units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := json.NewEncoder(w)
	for _, k := range keys {
		for i := range c.units[k].st.events {
			if err := enc.Encode(unitEvent{Unit: k, Event: c.units[k].st.events[i]}); err != nil {
				return err
			}
		}
	}
	return nil
}
