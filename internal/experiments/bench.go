// Benchmark-regression harness: a reproducible measurement of the
// analyzer's hot paths that `make bench` serializes into BENCH.json, so a
// change that slows the pipeline down or re-inflates its allocation rate
// shows up as a diff. All measurements run through testing.Benchmark —
// the same machinery as `go test -bench` — so ns/op, B/op, and allocs/op
// mean exactly what they mean there.
package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// BenchStat is one benchmark measurement in go-test units.
type BenchStat struct {
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func statOf(r testing.BenchmarkResult, events int) BenchStat {
	s := BenchStat{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if events > 0 && s.NsPerOp > 0 {
		s.EventsPerSec = float64(events) / (s.NsPerOp / float64(time.Second.Nanoseconds()))
	}
	return s
}

// BenchDecode compares the pooled decode path against the pool disabled.
// The pool trades allocations for per-op bookkeeping: AllocReductionPct
// records what it saves, NsPerOpDeltaPct records what it costs (positive
// = pooled is slower per op) — both are kept so a pool change that wins
// one axis by regressing the other shows up honestly in the diff.
type BenchDecode struct {
	Events            int       `json:"events"`
	Pooled            BenchStat `json:"pooled"`
	Unpooled          BenchStat `json:"unpooled"`
	AllocReductionPct float64   `json:"alloc_reduction_pct"`
	NsPerOpDeltaPct   float64   `json:"ns_per_op_delta_pct"`
}

// BenchPhase is one pipeline phase's share of an instrumented analysis.
type BenchPhase struct {
	Phase        string  `json:"phase"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// BenchCross compares the production cross-process detector against the
// quadratic baseline on one synthetic region.
type BenchCross struct {
	Ops       int       `json:"ops"`
	Linear    BenchStat `json:"linear"`
	Quadratic BenchStat `json:"quadratic"`
	Speedup   float64   `json:"speedup"`
}

// BenchShadow compares the shadow cross-process engine against the
// pairwise reference on an amplified multi-origin region — the shape
// where the pairwise per-vector scan is O(ops²). Agreement records that
// the two rendered byte-identical reports on the same trace before either
// was timed.
type BenchShadow struct {
	Ops       int       `json:"ops"`
	Ranks     int       `json:"ranks"`
	Events    int       `json:"events"`
	Pairwise  BenchStat `json:"pairwise"`
	Shadow    BenchStat `json:"shadow"`
	Speedup   float64   `json:"speedup"`
	Agreement bool      `json:"agreement"`
}

// BenchResult is the schema of BENCH.json.
type BenchResult struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Amplify    int    `json:"amplify"`
	BenchTime  string `json:"benchtime,omitempty"`

	Decode    BenchDecode  `json:"decode"`
	Signature BenchStat    `json:"signature"`
	Phases    []BenchPhase `json:"phases"`
	Cross     BenchCross   `json:"cross_process"`
	Shadow    BenchShadow  `json:"shadow_vs_pairwise"`
}

// BenchConfig parameterizes the harness.
type BenchConfig struct {
	// Amplify repeats each bug-case body this many times per rank, scaling
	// the Table II corpora into trace sets large enough to time.
	Amplify int
	// BenchTime forwards to -test.benchtime ("" keeps the 1s default;
	// "1x" is the CI smoke setting).
	BenchTime string
	// CrossOps sizes the synthetic region of the linear-vs-quadratic
	// comparison (the quadratic baseline is O(ops²)).
	CrossOps int
	// ShadowOps sizes the amplified multi-origin region of the
	// shadow-vs-pairwise comparison (the pairwise reference's per-vector
	// scan is O(ops²) there). Default 4096.
	ShadowOps int
	// Trace, when non-nil, records the instrumented phase pass (the one
	// benchPhases reads the span registry from) as a causal timeline.
	Trace *tracing.Recorder
}

var benchInit sync.Once

// Bench measures the pipeline's hot paths on the amplified Table II
// corpora and returns the BENCH.json payload.
func Bench(cfg BenchConfig) (*BenchResult, error) {
	if cfg.Amplify < 1 {
		cfg.Amplify = 8
	}
	if cfg.CrossOps < 1 {
		cfg.CrossOps = 1024
	}
	if cfg.ShadowOps < 1 {
		cfg.ShadowOps = 4096
	}
	benchInit.Do(testing.Init)
	if cfg.BenchTime != "" {
		if err := flag.Set("test.benchtime", cfg.BenchTime); err != nil {
			return nil, fmt.Errorf("bench: invalid benchtime %q: %w", cfg.BenchTime, err)
		}
	}

	sets, err := benchCorpora(cfg.Amplify)
	if err != nil {
		return nil, err
	}
	events := 0
	for _, set := range sets {
		events += set.TotalEvents()
	}

	res := &BenchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Amplify:    cfg.Amplify,
		BenchTime:  cfg.BenchTime,
	}
	if err := benchDecode(sets, events, &res.Decode); err != nil {
		return nil, err
	}
	res.Signature = benchSignature()
	phases, err := benchPhases(sets, cfg.Trace)
	if err != nil {
		return nil, err
	}
	res.Phases = phases
	if err := benchCross(cfg.CrossOps, &res.Cross); err != nil {
		return nil, err
	}
	if err := benchShadow(cfg.ShadowOps, &res.Shadow); err != nil {
		return nil, err
	}
	return res, nil
}

// repeatBody amplifies a per-rank program: each repetition allocates
// fresh windows and communicators, so the repeated trace is a legal MPI
// execution m times the size.
func repeatBody(body func(p *mpi.Proc) error, times int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		for i := 0; i < times; i++ {
			if err := body(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// benchCorpora simulates every Table II buggy case (ranks clamped to 8,
// like the default bug table) with the body amplified, producing the
// trace sets the timing loops run over.
func benchCorpora(amplify int) ([]*trace.Set, error) {
	var sets []*trace.Set
	for _, bc := range apps.BugCases() {
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		sink := trace.NewMemorySink()
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		pr := profiler.New(sink, rel)
		if err := mpi.Run(ranks, mpi.Options{Hook: pr}, repeatBody(bc.Buggy, amplify)); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", bc.Name, err)
		}
		sets = append(sets, sink.Set())
	}
	return sets, nil
}

// benchDecode times one full decode pass over the encoded corpora, with
// the decode-context pool on and off.
func benchDecode(sets []*trace.Set, events int, out *BenchDecode) error {
	var bufs [][]byte
	for _, set := range sets {
		for _, t := range set.Traces {
			b, err := trace.EncodeTrace(t)
			if err != nil {
				return fmt.Errorf("bench: encoding corpus: %w", err)
			}
			bufs = append(bufs, b)
		}
	}
	decodeAll := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, buf := range bufs {
				if _, err := trace.ReadTrace(bytes.NewReader(buf)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	prev := trace.SetDecodePool(true)
	pooled := testing.Benchmark(decodeAll)
	trace.SetDecodePool(false)
	unpooled := testing.Benchmark(decodeAll)
	trace.SetDecodePool(prev)

	out.Events = events
	out.Pooled = statOf(pooled, events)
	out.Unpooled = statOf(unpooled, events)
	if out.Unpooled.AllocsPerOp > 0 {
		out.AllocReductionPct = (1 - float64(out.Pooled.AllocsPerOp)/float64(out.Unpooled.AllocsPerOp)) * 100
	}
	if out.Unpooled.NsPerOp > 0 {
		out.NsPerOpDeltaPct = (out.Pooled.NsPerOp - out.Unpooled.NsPerOp) / out.Unpooled.NsPerOp * 100
	}
	return nil
}

// benchSignature times the cached violation-identity path on a fresh
// violation per iteration (the first, cache-filling computation — the
// cost every deduplicated violation pays exactly once).
func benchSignature() BenchStat {
	template := core.Violation{
		Severity: core.SevError,
		Class:    core.AcrossProcesses,
		Rule:     "concurrent Put and Get from different processes overlap in the target window",
		A: trace.Event{Kind: trace.KindPut, Rank: 0, File: "bench/origin.go", Line: 42,
			Func: "repro/internal/apps.benchOrigin"},
		B: trace.Event{Kind: trace.KindGet, Rank: 1, File: "bench/target.go", Line: 97,
			Func: "repro/internal/apps.benchTarget"},
		Win:     3,
		Overlap: memory.Iv(0x1000, 64),
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := template
			if v.Signature() == "" {
				b.Fatal("empty signature")
			}
		}
	})
	return statOf(r, 0)
}

// benchPhases runs one instrumented analysis over the corpora and reads
// the per-phase wall times back from the observability spans. A non-nil
// tr additionally records the pass as a causal timeline.
func benchPhases(sets []*trace.Set, tr *tracing.Recorder) ([]BenchPhase, error) {
	reg := obs.NewRegistry()
	events := 0
	for _, set := range sets {
		opts := core.DefaultOptions()
		opts.Obs = reg
		opts.Trace = tr
		if _, err := core.AnalyzeWith(set, opts); err != nil {
			return nil, err
		}
		events += set.TotalEvents()
	}
	snap := reg.Snapshot()
	var phases []BenchPhase
	for _, name := range []string{"model", "match", "dag", "epochs", "detect_intra", "detect_cross"} {
		secs := snap.Span(obs.PhaseSpanName, "phase", name).Total().Seconds()
		p := BenchPhase{Phase: name, Seconds: secs}
		if secs > 0 {
			p.EventsPerSec = float64(events) / secs
		}
		phases = append(phases, p)
	}
	return phases, nil
}

// benchCross times the production cross-process detector (the shadow
// engine) against the quadratic baseline on one synthetic concurrent
// region.
func benchCross(ops int, out *BenchCross) error {
	set := SyntheticRegion(16, ops)
	linear := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeWith(set, core.Options{CrossProcess: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	quadratic := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.QuadraticAnalyze(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	out.Ops = ops
	out.Linear = statOf(linear, set.TotalEvents())
	out.Quadratic = statOf(quadratic, set.TotalEvents())
	if out.Linear.NsPerOp > 0 {
		out.Speedup = out.Quadratic.NsPerOp / out.Linear.NsPerOp
	}
	return nil
}

// benchShadow times the shadow engine against the pairwise reference on
// the multi-origin region where every operation shares one (window,
// target) vector. The reports are compared first (CheckPairwise, which
// also checks the within-epoch detector): if they are not byte-identical
// on this trace the harness fails instead of publishing a speedup for a
// detector that disagrees with its reference.
func benchShadow(ops int, out *BenchShadow) error {
	const ranks = 8
	set := ShadowSyntheticRegion(ranks, ops)
	if _, err := CheckPairwise(set); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	out.Agreement = true

	run := func(analyze func(*trace.Set) (*core.Report, error)) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analyze(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	shadow := run(func(set *trace.Set) (*core.Report, error) {
		return core.AnalyzeWith(set, core.Options{CrossProcess: true})
	})
	pairwise := run(baseline.PairwiseAnalyze)

	out.Ops = ops
	out.Ranks = ranks
	out.Events = set.TotalEvents()
	out.Shadow = statOf(shadow, set.TotalEvents())
	out.Pairwise = statOf(pairwise, set.TotalEvents())
	if out.Shadow.NsPerOp > 0 {
		out.Speedup = out.Pairwise.NsPerOp / out.Shadow.NsPerOp
	}
	return nil
}

// CheckPairwise analyzes set with each production detector and with its
// pairwise reference — the cross-process detector against
// baseline.PairwiseAnalyze, the within-epoch detector against
// baseline.PairwiseIntraAnalyze — and fails unless each pair of reports
// renders byte-identically in text and JSON. It returns the production
// cross-process report.
func CheckPairwise(set *trace.Set) (*core.Report, error) {
	cross, err := checkAgainst(set, core.Options{CrossProcess: true},
		baseline.PairwiseAnalyze, "pairwise reference")
	if err != nil {
		return nil, err
	}
	if _, err := checkAgainst(set, core.Options{IntraEpoch: true},
		baseline.PairwiseIntraAnalyze, "within-epoch pairwise reference"); err != nil {
		return nil, err
	}
	return cross, nil
}

// checkAgainst analyzes set with opts and with the reference detector ref,
// and fails unless the two reports render byte-identically in text and
// JSON. It returns the production report.
func checkAgainst(set *trace.Set, opts core.Options, ref func(*trace.Set) (*core.Report, error), name string) (*core.Report, error) {
	rep, err := core.AnalyzeWith(set, opts)
	if err != nil {
		return nil, err
	}
	refRep, err := ref(set)
	if err != nil {
		return nil, err
	}
	if got, want := rep.String(), refRep.String(); got != want {
		return nil, fmt.Errorf("report diverged from the %s\n--- reference ---\n%s\n--- production ---\n%s",
			name, want, got)
	}
	js, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	refJS, err := refRep.JSON()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(js, refJS) {
		return nil, fmt.Errorf("JSON report diverged from the %s", name)
	}
	return rep, nil
}
