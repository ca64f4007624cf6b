package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// crossInput is one trace's prebuilt pipeline, everything the detectors
// read.
type crossInput struct {
	m       *model.Model
	d       *dag.DAG
	epochs  []*Epoch
	opEpoch map[trace.ID]*Epoch
}

// amplifiedCorpus simulates every registry case but schedrace, buggy and
// fixed, with each body repeated 8 times and ranks capped at 8 — the
// shape of the benchmark's bugcorpus workload — and builds each trace's
// pipeline up to the detectors.
func amplifiedCorpus(tb testing.TB) []crossInput {
	tb.Helper()
	const times, maxRanks = 8, 8
	var out []crossInput
	for _, bc := range apps.AllCases() {
		if bc.Name == "schedrace" {
			continue
		}
		ranks := bc.Ranks
		if ranks > maxRanks {
			ranks = maxRanks
		}
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		for _, body := range []func(p *mpi.Proc) error{bc.Buggy, bc.Fixed} {
			body := body
			sink := trace.NewMemorySink()
			err := mpi.Run(ranks, mpi.Options{Hook: profiler.New(sink, rel)}, func(p *mpi.Proc) error {
				for i := 0; i < times; i++ {
					if err := body(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				tb.Fatalf("%s: %v", bc.Name, err)
			}
			m, err := model.Build(sink.Set())
			if err != nil {
				tb.Fatal(err)
			}
			ms, err := match.Run(m)
			if err != nil {
				tb.Fatal(err)
			}
			d, err := dag.Build(m, ms)
			if err != nil {
				tb.Fatal(err)
			}
			epochs, opEpoch, err := ExtractEpochs(m)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, crossInput{m: m, d: d, epochs: epochs, opEpoch: opEpoch})
		}
	}
	return out
}

// BenchmarkDetectCross measures the cross-process detector alone, one op
// being one pass over the amplified corpus with every earlier phase
// prebuilt.
func BenchmarkDetectCross(b *testing.B) {
	inputs := amplifiedCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := NewAnalyzer(in.m, in.d, in.epochs, in.opEpoch, Options{CrossProcess: true}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
