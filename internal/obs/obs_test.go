package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{T: 1, Kind: "x"})
	if r.Len() != 0 || r.Events() != nil || r.EventsOf("x") != nil {
		t.Fatal("nil recorder should report empty")
	}
	if s := r.Scoped("a"); s != nil {
		t.Fatal("Scoped on nil should stay nil")
	}
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteNDJSON wrote %q, err %v", buf.String(), err)
	}
}

func TestRecorderScoping(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{T: 1, Kind: "a"})
	j3 := r.Scoped("job3")
	j3.Record(Event{T: 2, Kind: "b"})
	j3.Scoped("w0").Record(Event{T: 3, Kind: "c"})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Scope != "" || evs[1].Scope != "job3" || evs[2].Scope != "job3/w0" {
		t.Fatalf("scopes wrong: %+v", evs)
	}
	// EventsOf reads the shared buffer: a child sees its parent's and
	// its siblings' events of the kind.
	j3.Scoped("w1").Record(Event{T: 4, Kind: "c"})
	cs := j3.EventsOf("c")
	if len(cs) != 2 || cs[0].Scope != "job3/w0" || cs[1].Scope != "job3/w1" {
		t.Fatalf("EventsOf(c) = %+v, want the w0 and w1 events", cs)
	}
	if as := j3.EventsOf("a"); len(as) != 1 || as[0].Scope != "" {
		t.Fatalf("EventsOf(a) = %+v, want the parent's event", as)
	}
}

func TestRecorderNDJSONFieldOrder(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{T: 1.5, Kind: "revocation", Worker: "K80-0", Step: 42})
	var buf bytes.Buffer
	if err := r.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.5,"kind":"revocation","worker":"K80-0","step":42}` + "\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

// TestCollectorOrderIndependent pins the property repro -trace-out
// relies on: the exported stream depends only on the recorded events,
// never on the order units ran or were registered.
func TestCollectorOrderIndependent(t *testing.T) {
	render := func(keys []string) string {
		c := NewCollector()
		for i, k := range keys {
			c.Unit(k).Record(Event{T: float64(i), Kind: "e"})
		}
		var buf bytes.Buffer
		if err := c.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"exp/0001 b", "exp/0000 a", "exp/0002 c"})
	b := render([]string{"exp/0002 c", "exp/0000 a", "exp/0001 b"})
	// The events carry different T per registration order above, so
	// normalize by comparing unit ordering only.
	if gotA, gotB := unitsOf(a), unitsOf(b); gotA != gotB {
		t.Fatalf("unit order differs:\n%s\nvs\n%s", gotA, gotB)
	}
	if !strings.HasPrefix(a, `{"unit":"exp/0000 a"`) {
		t.Fatalf("units not sorted: %q", a)
	}
}

func unitsOf(s string) string {
	var units []string
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		units = append(units, strings.SplitN(line, ",", 2)[0])
	}
	return strings.Join(units, "|")
}

func TestCollectorConcurrentUnits(t *testing.T) {
	c := NewCollector()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	recs := make([]*Recorder, len(keys))
	for i, k := range keys {
		recs[i] = c.Unit(k)
	}
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(r *Recorder, base float64) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record(Event{T: base + float64(j), Kind: "e"})
			}
		}(recs[i], float64(i*1000))
	}
	wg.Wait()
	if c.Len() != len(keys)*100 {
		t.Fatalf("got %d events, want %d", c.Len(), len(keys)*100)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("test_total", "a counter")
	g := reg.NewGauge("test_gauge", "a gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge %d, want 0", g.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum %g, want %g", got, want)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP lat_seconds latency",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h_seconds", "h", DefaultLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d, want 8000", h.Count())
	}
	if got := h.Sum(); got != 2000 {
		t.Fatalf("sum %g, want 2000", got)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewHistogramVec("req_seconds", "by endpoint", "endpoint", []float64{1})
	v.With("measure").Observe(0.5)
	v.With("sweep").Observe(2)
	if v.With("measure") != v.With("measure") {
		t.Fatal("With must return the same child")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`req_seconds_bucket{endpoint="measure",le="1"} 1`,
		`req_seconds_bucket{endpoint="sweep",le="+Inf"} 1`,
		`req_seconds_sum{endpoint="measure"} 0.5`,
		`req_seconds_count{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	reg.NewGauge("dup_total", "y")
}

// expositionLine matches the two legal shapes of a Prometheus text
// line: a comment/header or a sample. Shared with the CI metrics
// check's grammar.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN))$`)

// TestExpositionWellFormed runs the full metric-type zoo through the
// writer and validates every line against the exposition grammar —
// the in-process version of the CI curl check.
func TestExpositionWellFormed(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("c_total", "counter").Add(3)
	reg.NewGauge("g", "gauge").Set(-2)
	reg.NewCounterFunc("cf_total", "func counter", func() float64 { return 12.5 })
	reg.NewGaugeFunc("gf", "func gauge", func() float64 { return 0.25 })
	reg.NewHistogram("h_seconds", "histogram", DefaultLatencyBuckets).Observe(0.3)
	vec := reg.NewHistogramVec("hv_seconds", "vec", "endpoint", []float64{0.1, 1})
	vec.With("a").Observe(0.05)
	vec.With("b").Observe(5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}
