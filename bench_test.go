package mcchecker

// Benchmarks regenerating the paper's evaluation, one per table/figure
// (run `go test -bench=. -benchmem`). Absolute numbers are machine-local;
// the reproduction targets are the paper's shapes. cmd/mcbench prints the
// corresponding tables with percentages.

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/stream"
	"repro/internal/trace"
)

// --- Table II: full detection pipeline per bug case ---------------------

func BenchmarkTable2Detection(b *testing.B) {
	for _, bc := range apps.BugCases() {
		bc := bc
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		b.Run(bc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := trace.NewMemorySink()
				pr := profiler.New(sink, profiler.FromNames(bc.RelevantBuffers))
				if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
					b.Fatal(err)
				}
				rep, err := core.Analyze(sink.Set())
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Errors()) == 0 {
					b.Fatal("bug not detected")
				}
			}
		})
	}
}

// --- Figure 8: native vs profiled vs fully instrumented -----------------

// fig8Ranks keeps the benchmark variant affordable; cmd/mcbench runs the
// paper's 64-rank configuration.
const fig8Ranks = 16

func benchWorkload(b *testing.B, body func(p *mpi.Proc) error, hook mpi.Hook) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mpi.Run(fig8Ranks, mpi.Options{Hook: hook}, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for _, wl := range apps.Workloads() {
		wl := wl
		body := wl.Body(0.5)
		b.Run(wl.Name+"/native", func(b *testing.B) {
			benchWorkload(b, body, nil)
		})
		b.Run(wl.Name+"/profiled", func(b *testing.B) {
			pr := profiler.New(trace.NewCountingSink(nil), profiler.FromNames(wl.RelevantBuffers))
			benchWorkload(b, body, pr)
		})
		b.Run(wl.Name+"/fullinstr", func(b *testing.B) {
			pr := profiler.New(trace.NewCountingSink(nil), nil)
			benchWorkload(b, body, pr)
		})
	}
}

// --- Figure 9/10: LU strong scaling --------------------------------------

func BenchmarkFig9LU(b *testing.B) {
	const n = 128
	for _, ranks := range []int{8, 16, 32, 64} {
		ranks := ranks
		body := apps.LUWorkload(n)
		b.Run(fmt.Sprintf("ranks%d/native", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := mpi.Run(ranks, mpi.Options{}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ranks%d/profiled", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr := profiler.New(trace.NewCountingSink(nil), profiler.FromNames([]string{"matrix", "panel"}))
				if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §IV-C-4 ablation: linear vs quadratic cross-process detection -------

// BenchmarkAblationLinearVsQuadratic times the production cross-process
// detector (linear/*) against the all-pairs baseline (quadratic/*).
func BenchmarkAblationLinearVsQuadratic(b *testing.B) {
	for _, ops := range []int{256, 1024, 4096} {
		set := experiments.SyntheticRegion(16, ops)
		b.Run(fmt.Sprintf("linear/ops%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.AnalyzeWith(set, core.Options{CrossProcess: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) == 0 {
					b.Fatal("planted conflict missed")
				}
			}
		})
		b.Run(fmt.Sprintf("quadratic/ops%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := baseline.QuadraticAnalyze(set)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Violations) == 0 {
					b.Fatal("planted conflict missed")
				}
			}
		})
	}
}

// --- DESIGN decision ablations -------------------------------------------

// Vector clocks (O(1) queries after one pass) vs naive reachability.
func BenchmarkHappensBeforeQueries(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.LUWorkload(48)); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	m, err := model.Build(set)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := match.Run(m)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		b.Fatal(err)
	}
	n := dag.BuildNaive(m, ms)
	// Query pairs spread across the trace.
	var pairs [][2]trace.ID
	for r := 0; r < set.Ranks(); r++ {
		t := set.Traces[r]
		q := (r + 3) % set.Ranks()
		u := set.Traces[q]
		for i := 0; i < len(t.Events); i += 97 {
			j := (i * 31) % len(u.Events)
			pairs = append(pairs, [2]trace.ID{t.Events[i].ID(), u.Events[j].ID()})
		}
	}
	b.Run("vectorclock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = d.Concurrent(p[0], p[1])
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_ = n.Concurrent(p[0], p[1])
		}
	})
}

// Algorithm 1 (progress counters) vs scanning all traces per call.
func BenchmarkSyncMatching(b *testing.B) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.SKaMPI(6)); err != nil {
		b.Fatal(err)
	}
	m, err := model.Build(sink.Set())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.Run(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := match.RunNaive(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §VII comparison: SyncChecker baseline -------------------------------

func BenchmarkSyncCheckerBaseline(b *testing.B) {
	bc := apps.BugCases()[0] // emulate
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(2, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	b.Run("mcchecker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Analyze(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synccheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.SyncCheckerAnalyze(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §VII-B extension: streaming (online) vs batch (offline) analysis ----

func BenchmarkStreamVsBatch(b *testing.B) {
	body := func(p *mpi.Proc) error {
		win := p.Alloc(256, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		for i := 0; i < 10; i++ {
			w.Fence(mpi.AssertNone)
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, (p.Rank()+1)%p.Size(), uint64(p.Rank())*8, 1, mpi.Int64)
			w.Fence(mpi.AssertNone)
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := stream.New(4, nil)
			pr := profiler.New(sc, nil)
			if err := mpi.Run(4, mpi.Options{Hook: pr}, body); err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink := trace.NewMemorySink()
			pr := profiler.New(sink, nil)
			if err := mpi.Run(4, mpi.Options{Hook: pr}, body); err != nil {
				b.Fatal(err)
			}
			if _, err := core.Analyze(sink.Set()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Profiler hot path ----------------------------------------------------

func BenchmarkProfilerEmitCost(b *testing.B) {
	// One rank storing repeatedly: isolates the per-access instrumentation
	// cost that Figure 8's overhead consists of.
	run := func(b *testing.B, hook mpi.Hook) {
		b.Helper()
		b.ReportAllocs()
		err := mpi.Run(1, mpi.Options{Hook: hook}, func(p *mpi.Proc) error {
			buf := p.AllocFloat64(8, "hot")
			for i := 0; i < b.N; i++ {
				buf.SetFloat64(0, float64(i))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("native", func(b *testing.B) { run(b, nil) })
	b.Run("profiled", func(b *testing.B) {
		run(b, profiler.New(trace.NewCountingSink(nil), nil))
	})
}

// --- Analysis pipeline stages (profiling the offline side) ---------------

func BenchmarkAnalysisPipeline(b *testing.B) {
	// A moderately sized clean workload trace.
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(8, mpi.Options{Hook: pr}, apps.LUWorkload(64)); err != nil {
		b.Fatal(err)
	}
	set := sink.Set()
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.Analyze(set)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				b.Fatal("unexpected violations")
			}
		}
	})
}
