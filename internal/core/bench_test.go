package core

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
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

// fatEpochInput is one trace in the shape of the benchmark's fat-region
// workload, built without the simulator: rank 0 exposes a window of
// 7×585 float64 words and each of ranks 1–7 puts one word from the same
// one-word source buffer into each word of its own stripe, in a shuffled
// order, inside one shared lock epoch on rank 0. No two operations
// overlap, so the within-epoch detector's cost is all pair checks.
func fatEpochInput(tb testing.TB) crossInput {
	tb.Helper()
	const ranks, per, word = 8, 585, 8
	const base, src = 0x10000, 0x900000
	b := testutil.NewTraceBuilder(ranks)
	b.WinCreate(1, base, (ranks-1)*per*word)
	b.Barrier()
	rng := rand.New(rand.NewSource(1))
	for r := int32(1); r < ranks; r++ {
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 0, Lock: trace.LockShared, File: "fat.go", Line: 1})
		for _, k := range rng.Perm(per) {
			b.Add(r, trace.Event{Kind: trace.KindPut, Win: 1, Target: 0,
				OriginAddr: src, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: uint64((int(r)-1)*per+k) * word, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "fat.go", Line: 2})
		}
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 0, File: "fat.go", Line: 3})
	}
	b.Barrier()
	set := b.Set()
	m, err := model.Build(set)
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
	return crossInput{m: m, d: d, epochs: epochs, opEpoch: opEpoch}
}

// BenchmarkDetectIntra measures the within-epoch detector alone with
// every earlier phase prebuilt: corpus is one pass over the amplified
// corpus, fat-epoch one pass over fatEpochInput.
func BenchmarkDetectIntra(b *testing.B) {
	for _, bc := range []struct {
		name   string
		inputs func(testing.TB) []crossInput
	}{
		{"corpus", amplifiedCorpus},
		{"fat-epoch", func(tb testing.TB) []crossInput { return []crossInput{fatEpochInput(tb)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			inputs := bc.inputs(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range inputs {
					if _, err := NewAnalyzer(in.m, in.d, in.epochs, in.opEpoch, Options{IntraEpoch: true}).Run(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
