package trace_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// luTrace returns the profiled trace of LU at 16 ranks and order 192, the
// largest trace of the Figure 8 apps.
func luTrace(b *testing.B) *trace.Set {
	b.Helper()
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, profiler.FromNames([]string{"matrix", "panel"}))
	if err := mpi.Run(16, mpi.Options{Hook: pr}, apps.LUWorkload(192)); err != nil {
		b.Fatal(err)
	}
	return sink.Set()
}

// BenchmarkEncodeTrace encodes the LU trace rank by rank: the trace
// writer's cost in isolation.
func BenchmarkEncodeTrace(b *testing.B) {
	set := luTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range set.Traces {
			if _, err := trace.EncodeTrace(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(set.TotalEvents()), "events/op")
}

// BenchmarkWriteDir writes the LU trace into a temporary directory, one
// file per rank, as a profiled run's trace is written: the encoder and
// the file writes together.
func BenchmarkWriteDir(b *testing.B) {
	set := luTrace(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteDir(dir, set); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(set.TotalEvents()), "events/op")
}
