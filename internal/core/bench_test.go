package core

import (
	"bytes"
	"fmt"
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

// crossInput is one trace's prebuilt pipeline: every phase's input, up to
// what the detectors read. enc and ms are set only by amplifiedCorpus.
type crossInput struct {
	enc     [][]byte // each rank's trace, as trace.EncodeTrace writes it
	set     *trace.Set
	m       *model.Model
	ms      *match.Matches
	d       *dag.DAG
	epochs  []*Epoch
	opEpoch map[trace.ID]*Epoch
}

// amplifiedCorpus simulates every registry case but schedrace, buggy and
// fixed, with each body repeated 8 times and ranks capped at 8 — the
// shape of the benchmark's bugcorpus workload — and builds each trace's
// pipeline up to the detectors, keeping every phase's input.
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
			set := sink.Set()
			var enc [][]byte
			for _, t := range set.Traces {
				buf, err := trace.EncodeTrace(t)
				if err != nil {
					tb.Fatal(err)
				}
				enc = append(enc, buf)
			}
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
			out = append(out, crossInput{enc: enc, set: set, m: m, ms: ms, d: d, epochs: epochs, opEpoch: opEpoch})
		}
	}
	return out
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

// phase is one pipeline phase run alone on one prebuilt input.
type phase struct {
	name string
	run  func(in crossInput) error
}

// phases lists every analysis phase from decode to detect_cross, in
// pipeline order, each reading only inputs amplifiedCorpus prebuilt.
var phases = []phase{
	{"decode", func(in crossInput) error {
		for _, buf := range in.enc {
			if _, err := trace.ReadTrace(bytes.NewReader(buf)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"model", func(in crossInput) error { _, err := model.Build(in.set); return err }},
	{"match", func(in crossInput) error { _, err := match.Run(in.m); return err }},
	{"dag", func(in crossInput) error { _, err := dag.Build(in.m, in.ms); return err }},
	{"epochs", func(in crossInput) error { _, _, err := ExtractEpochs(in.m); return err }},
	{"detect_intra", detector(Options{IntraEpoch: true})},
	{"detect_cross", detector(Options{CrossProcess: true})},
}

// detector runs the detectors opts enables on one prebuilt input.
func detector(opts Options) func(in crossInput) error {
	return func(in crossInput) error {
		_, err := NewAnalyzer(in.m, in.d, in.epochs, in.opEpoch, opts).Run()
		return err
	}
}

// runPhase runs one phase over every input: one pass over the corpus.
func runPhase(p phase, inputs []crossInput) error {
	for _, in := range inputs {
		if err := p.run(in); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// BenchmarkFrontEnd measures each phase before the detectors alone, one
// op being one pass over the amplified corpus with every earlier phase
// prebuilt. BenchmarkDetectIntra and BenchmarkDetectCross cover the rest.
func BenchmarkFrontEnd(b *testing.B) {
	inputs := amplifiedCorpus(b)
	for _, p := range phases {
		if p.name == "detect_intra" {
			break
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runPhase(p, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDetectCross measures the cross-process detector alone with
// every earlier phase prebuilt: corpus is one pass over the amplified
// corpus, fat one pass over fatEpochInput, whose Puts all land in one
// (window, target) vector of one concurrent region.
func BenchmarkDetectCross(b *testing.B) {
	benchDetector(b, Options{CrossProcess: true}, "fat")
}

// BenchmarkDetectIntra measures the within-epoch detector alone with
// every earlier phase prebuilt: corpus is one pass over the amplified
// corpus, fat-epoch one pass over fatEpochInput.
func BenchmarkDetectIntra(b *testing.B) {
	benchDetector(b, Options{IntraEpoch: true}, "fat-epoch")
}

// benchDetector runs the detectors opts enables as two sub-benchmarks,
// corpus and fat (named fatName), one op being one pass over the inputs.
func benchDetector(b *testing.B, opts Options, fatName string) {
	for _, bc := range []struct {
		name   string
		inputs func(testing.TB) []crossInput
	}{
		{"corpus", amplifiedCorpus},
		{fatName, func(tb testing.TB) []crossInput { return []crossInput{fatEpochInput(tb)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			inputs := bc.inputs(b)
			run := phase{"detect", detector(opts)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runPhase(run, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
