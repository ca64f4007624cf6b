package trace_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// BenchmarkEncodeTrace encodes a profiled LU trace, the largest trace of
// the Figure 8 apps, rank by rank: the trace writer's cost in isolation.
func BenchmarkEncodeTrace(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, profiler.FromNames([]string{"matrix", "panel"}))
	if err := mpi.Run(16, mpi.Options{Hook: pr}, apps.LUWorkload(192)); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
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
