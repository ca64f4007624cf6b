package trace_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
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

// genTrace returns the profiled trace of one gen-mix program: 8 ranks of
// about 300 events, about 10 KB per rank file.
func genTrace(b *testing.B) *trace.Set {
	b.Helper()
	pr := gen.Generate(1, gen.Options{Ranks: 8, Slots: 6, Phases: 24})
	sink := trace.NewMemorySink()
	if err := mpi.Run(pr.Ranks, mpi.Options{Hook: profiler.New(sink, nil)}, pr.Body()); err != nil {
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

// BenchmarkWriteDir rewrites a profiled trace over its own files, one
// file per rank, as each job of the app workloads rewrites its trace
// directory: the encoder and the file writes together. LU writes 16 files
// of about 300 KB, where encoding is most of the cost; a gen-mix program
// writes 8 files of about 10 KB, where the cost of rewriting each file
// shows.
func BenchmarkWriteDir(b *testing.B) {
	for _, c := range []struct {
		name  string
		trace func(*testing.B) *trace.Set
	}{{"LU", luTrace}, {"gen-mix", genTrace}} {
		b.Run(c.name, func(b *testing.B) {
			set := c.trace(b)
			dir := b.TempDir()
			if err := trace.WriteDir(dir, set); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := trace.WriteDir(dir, set); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(set.TotalEvents()), "events/op")
		})
	}
}
