package obs

import "testing"

// BenchmarkRecorderRecord proves the sim-plane hot path is
// allocation-free steady-state: once the event buffer has grown,
// Record is a scope stamp and a slice append.
func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder()
	// Pre-grow the buffer so amortized slice growth doesn't count
	// against the steady-state figure.
	for i := 0; i < b.N; i++ {
		r.Record(Event{})
	}
	r.st.events = r.st.events[:0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Event{T: float64(i), Kind: "checkpoint", Worker: "K80-0", Step: int64(i)})
	}
}

// BenchmarkRecorderRecordNil measures the tracing-off cost paid by
// instrumented code: one nil test.
func BenchmarkRecorderRecordNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Event{T: float64(i), Kind: "checkpoint"})
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.NewHistogramVec("bench_seconds", "bench", "endpoint", DefaultLatencyBuckets).With("measure")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}
