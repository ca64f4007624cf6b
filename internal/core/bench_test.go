package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// crossInput is one trace's prebuilt pipeline: every phase's input, up to
// what the detectors read, and the report they give. enc, ms and rep are
// set only by amplifiedCorpus.
type crossInput struct {
	enc     [][]byte // each rank's trace, as trace.EncodeTrace writes it
	set     *trace.Set
	m       *model.Model
	ms      *match.Matches
	d       *dag.DAG
	epochs  []*Epoch
	opEpoch map[trace.ID]*Epoch
	rep     *Report // the trace's report under DefaultOptions
}

// amplifiedCorpus simulates every registry case but schedrace, buggy and
// fixed, with each body repeated 8 times and ranks capped at 8 — the
// shape of the benchmark's bugcorpus workload — and builds each trace's
// pipeline up to the detectors, keeping every phase's input and the
// trace's report.
func amplifiedCorpus(tb testing.TB) []crossInput {
	tb.Helper()
	cases, err := testutil.CaseTraces(8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	var out []crossInput
	for _, c := range cases {
		if strings.HasPrefix(c.Name, "schedrace/") {
			continue
		}
		set := c.Set
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
		rep, err := AnalyzeWith(set, DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, crossInput{enc: enc, set: set, m: m, ms: ms, d: d, epochs: epochs, opEpoch: opEpoch, rep: rep})
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
	return builtInput(tb, b.Set())
}

// builtInput builds set's pipeline up to the detectors.
func builtInput(tb testing.TB, set *trace.Set) crossInput {
	tb.Helper()
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

// medianCorpus is the middle half of the amplified corpus by event count:
// the traces that set the benchmark's bugcorpus job_ms_p50. A pass over
// the whole corpus is dominated by its five largest traces.
func medianCorpus(tb testing.TB) []crossInput {
	in := amplifiedCorpus(tb)
	slices.SortStableFunc(in, func(x, y crossInput) int {
		return cmp.Compare(x.set.TotalEvents(), y.set.TotalEvents())
	})
	return in[len(in)/4 : len(in)-len(in)/4]
}

// wideInput is one concurrent region over many vectors: ranks 1–3 each
// lock (shared), Put one float64 into and unlock each of rank 0's 4,000
// windows, each rank into its own word, so no pair conflicts. A region
// holds 4,000 (window, target) vectors, and a lookup linear in them costs
// the detector about four times its time.
func wideInput(tb testing.TB) crossInput {
	tb.Helper()
	const ranks, windows, word = 4, 4000, 8
	const base, src = 0x10000, 0x900000
	b := testutil.NewTraceBuilder(ranks)
	for w := int32(1); w <= windows; w++ {
		b.WinCreate(w, base+uint64(w)*64, (ranks-1)*word)
	}
	b.Barrier()
	for r := int32(1); r < ranks; r++ {
		for w := int32(1); w <= windows; w++ {
			b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: w, Target: 0, Lock: trace.LockShared, File: "wide.go", Line: 1})
			b.Add(r, trace.Event{Kind: trace.KindPut, Win: w, Target: 0,
				OriginAddr: src, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: uint64(r-1) * word, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "wide.go", Line: 2})
			b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: w, Target: 0, File: "wide.go", Line: 3})
		}
	}
	b.Barrier()
	return builtInput(tb, b.Set())
}

// manyGroupsInput is one vector of many (rank, class) groups: each of
// ranks 1–63 issues, eight times in one shared lock epoch on rank 0, a
// Put, a Get and an Accumulate under each of SUM and MAX, every operation
// into its own word from its own source word. That is 252 groups of 8
// members each, none conflicting, so a lookup linear in a vector's groups
// shows.
func manyGroupsInput(tb testing.TB) crossInput {
	tb.Helper()
	const ranks, reps, word = 64, 8, 8
	const base, src = 0x10000, 0x900000
	kinds := []struct {
		kind trace.Kind
		op   trace.AccOp
	}{{trace.KindPut, trace.OpNone}, {trace.KindGet, trace.OpNone},
		{trace.KindAccumulate, trace.OpSum}, {trace.KindAccumulate, trace.OpMax}}
	per := reps * len(kinds) // words per origin
	b := testutil.NewTraceBuilder(ranks)
	b.WinCreate(1, base, uint64((ranks-1)*per*word))
	b.Barrier()
	for r := int32(1); r < ranks; r++ {
		b.Add(r, trace.Event{Kind: trace.KindWinLock, Win: 1, Target: 0, Lock: trace.LockShared, File: "groups.go", Line: 1})
		for i := 0; i < per; i++ {
			k := kinds[i%len(kinds)]
			b.Add(r, trace.Event{Kind: k.kind, AccOp: k.op, Win: 1, Target: 0,
				OriginAddr: src + uint64(i)*word, OriginType: trace.TypeFloat64, OriginCount: 1,
				TargetDisp: uint64((int(r)-1)*per+i) * word, TargetType: trace.TypeFloat64, TargetCount: 1,
				File: "groups.go", Line: int32(2 + i%len(kinds))})
		}
		b.Add(r, trace.Event{Kind: trace.KindWinUnlock, Win: 1, Target: 0, File: "groups.go", Line: 9})
	}
	b.Barrier()
	return builtInput(tb, b.Set())
}

// phase is one pipeline phase run alone on one prebuilt input.
type phase struct {
	name string
	run  func(in crossInput) error
}

// phases lists every analysis phase from decode to render, in pipeline
// order, each reading only inputs amplifiedCorpus prebuilt.
var phases = []phase{
	{"decode", func(in crossInput) error {
		for _, buf := range in.enc {
			if _, err := trace.ReadTrace(buf); err != nil {
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
	{"render", func(in crossInput) error { _ = in.rep.String(); return nil }},
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

// BenchmarkRender measures the text renderer alone: one op is one
// Report.String of each amplified-corpus trace's report.
func BenchmarkRender(b *testing.B) {
	inputs := amplifiedCorpus(b)
	render := phases[len(phases)-1] // render is the last phase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runPhase(render, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInputs is one named input set of a detector benchmark.
type benchInputs struct {
	name   string
	inputs func(testing.TB) []crossInput
}

// one wraps a single-input builder as an input set.
func one(name string, build func(testing.TB) crossInput) benchInputs {
	return benchInputs{name, func(tb testing.TB) []crossInput { return []crossInput{build(tb)} }}
}

// BenchmarkDetectCross measures the cross-process detector alone with
// every earlier phase prebuilt: corpus is one pass over the amplified
// corpus and median over its middle half; fat is one pass over
// fatEpochInput, whose Puts all land in one (window, target) vector of
// one concurrent region, wide over wideInput and many-groups over
// manyGroupsInput.
func BenchmarkDetectCross(b *testing.B) {
	benchDetector(b, Options{CrossProcess: true},
		one("fat", fatEpochInput), one("wide", wideInput), one("many-groups", manyGroupsInput))
}

// BenchmarkDetectIntra measures the within-epoch detector alone with
// every earlier phase prebuilt: corpus is one pass over the amplified
// corpus, median over its middle half and fat-epoch over fatEpochInput.
func BenchmarkDetectIntra(b *testing.B) {
	benchDetector(b, Options{IntraEpoch: true}, one("fat-epoch", fatEpochInput))
}

// benchDetector runs the detectors opts enables as sub-benchmarks, corpus
// and median and then each of extra, one op being one pass over the
// inputs.
func benchDetector(b *testing.B, opts Options, extra ...benchInputs) {
	sets := append([]benchInputs{{"corpus", amplifiedCorpus}, {"median", medianCorpus}}, extra...)
	for _, bc := range sets {
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

// BenchmarkEpochsManyWindows measures ExtractEpochs on two ranks that
// each create, fence, Put to, fence and free 10,000 windows in turn:
// every window leaves one fence epoch open until the end of the trace.
func BenchmarkEpochsManyWindows(b *testing.B) {
	tb := testutil.NewTraceBuilder(2)
	for w := int32(1); w <= 10000; w++ {
		tb.WinCreate(w, 0x1000+uint64(w)*64, 64)
		tb.Fence(w)
		tb.Add(0, put(w, 1))
		tb.Fence(w)
		for r := int32(0); r < 2; r++ {
			tb.Add(r, trace.Event{Kind: trace.KindWinFree, Win: w, Comm: 0})
		}
	}
	m, err := model.Build(tb.Set())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExtractEpochs(m); err != nil {
			b.Fatal(err)
		}
	}
}
