// Package experiments implements the paper's evaluation (§VI–§VII): each
// table and figure has a function that runs the corresponding workloads and
// returns the rows the paper reports. The cmd/mcbench harness prints them;
// the repository-root benchmarks time their building blocks.
package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// Table1 returns the compatibility matrix (paper Table I).
func Table1() [][]string { return core.TableRows() }

// Table2Row is one detection result (paper Table II).
type Table2Row struct {
	App           string
	Ranks         int
	Origin        string
	ErrorLocation string
	RootCause     string
	Symptom       string

	Detected   bool // an error of the expected class was reported
	FixedClean bool // the fixed variant reports nothing
	Diagnosis  string
}

// Table2 runs the five bug cases and reports detection results. fullScale
// uses the paper's process counts (lockopts at 64); otherwise large cases
// shrink to 8 ranks.
func Table2(fullScale bool) ([]Table2Row, error) {
	return runBugTable(apps.BugCases(), fullScale)
}

// Table2Extensions runs the beyond-the-paper bug cases (PSCW halo race,
// MPI-3 counter) through the same detection harness.
func Table2Extensions() ([]Table2Row, error) {
	return runBugTable(apps.ExtensionCases(), false)
}

func runBugTable(cases []apps.BugCase, fullScale bool) ([]Table2Row, error) {
	var rows []Table2Row
	for _, bc := range cases {
		ranks := bc.Ranks
		if !fullScale && ranks > 8 {
			ranks = 8
		}
		rep, err := runChecked(ranks, bc.Buggy, bc.RelevantBuffers)
		if err != nil {
			return nil, fmt.Errorf("%s buggy: %w", bc.Name, err)
		}
		wantClass := core.WithinEpoch
		if bc.ErrorLocation == "across processes" {
			wantClass = core.AcrossProcesses
		}
		row := Table2Row{
			App: bc.Name, Ranks: ranks, Origin: bc.Origin,
			ErrorLocation: bc.ErrorLocation, RootCause: bc.RootCause, Symptom: bc.Symptom,
		}
		for _, v := range rep.Errors() {
			if v.Class == wantClass {
				row.Detected = true
				row.Diagnosis = fmt.Sprintf("%s at %s vs %s at %s",
					v.A.Kind, v.A.Loc(), v.B.Kind, v.B.Loc())
				break
			}
		}
		fixedRep, err := runChecked(ranks, bc.Fixed, bc.RelevantBuffers)
		if err != nil {
			return nil, fmt.Errorf("%s fixed: %w", bc.Name, err)
		}
		row.FixedClean = len(fixedRep.Violations) == 0
		rows = append(rows, row)
	}
	return rows, nil
}

func runChecked(ranks int, body func(p *mpi.Proc) error, relevant []string) (*core.Report, error) {
	sink := trace.NewMemorySink()
	var rel profiler.Relevance
	if relevant != nil {
		rel = profiler.FromNames(relevant)
	}
	pr := profiler.New(sink, rel)
	if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
		return nil, err
	}
	return core.Analyze(sink.Set())
}

// OverheadRow is one bar group of Figure 8: one application's native,
// selectively profiled, and fully instrumented execution times.
type OverheadRow struct {
	App   string
	Ranks int

	Native   time.Duration
	Profiled time.Duration // selective instrumentation (ST-Analyzer set)
	Full     time.Duration // all buffers instrumented (no static analysis)

	OverheadPct     float64 // (Profiled-Native)/Native * 100
	FullOverheadPct float64

	Stats trace.Stats // selective-run event tallies
}

// Fig8 measures profiling overhead for the five workloads at the given
// rank count (the paper uses 64) and work scale. Each configuration runs
// `repeats` times; the minimum is kept (standard noise reduction).
func Fig8(ranks int, scale float64, repeats int) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, wl := range apps.Workloads() {
		body := wl.Body(scale)

		native, err := timeRun(ranks, nil, body, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", wl.Name, err)
		}
		var stats trace.Stats
		profiled, err := timeRunProfiled(ranks, wl.RelevantBuffers, body, repeats, &stats)
		if err != nil {
			return nil, fmt.Errorf("%s profiled: %w", wl.Name, err)
		}
		full, err := timeRunProfiled(ranks, nil, body, repeats, nil)
		if err != nil {
			return nil, fmt.Errorf("%s full: %w", wl.Name, err)
		}

		rows = append(rows, OverheadRow{
			App: wl.Name, Ranks: ranks,
			Native: native, Profiled: profiled, Full: full,
			OverheadPct:     pct(profiled, native),
			FullOverheadPct: pct(full, native),
			Stats:           stats,
		})
	}
	return rows, nil
}

func pct(with, without time.Duration) float64 {
	if without <= 0 {
		return 0
	}
	return (float64(with)/float64(without) - 1) * 100
}

// timeRun measures a native (unhooked) run.
func timeRun(ranks int, hook mpi.Hook, body func(p *mpi.Proc) error, repeats int) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := mpi.Run(ranks, mpi.Options{Hook: hook}, body); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// timeRunProfiled measures runs with the profiler attached. Events go to a
// counting sink (tallied, not stored), mirroring the paper's setup where
// the Profiler writes to local disk and the time excludes offline analysis.
func timeRunProfiled(ranks int, relevant []string, body func(p *mpi.Proc) error, repeats int, stats *trace.Stats) (time.Duration, error) {
	var rel profiler.Relevance
	if relevant != nil {
		rel = profiler.FromNames(relevant)
	}
	best := time.Duration(0)
	for r := 0; r < repeats; r++ {
		sink := trace.NewCountingSink(nil)
		pr := profiler.New(sink, rel)
		start := time.Now()
		if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if best == 0 || d < best {
			best = d
		}
		if stats != nil {
			*stats = sink.Stats()
		}
	}
	return best, nil
}

// ScalingRow is one point of Figures 9 and 10: LU at a given rank count.
type ScalingRow struct {
	Ranks    int
	Native   time.Duration
	Profiled time.Duration

	OverheadPct float64 // Figure 9

	// Figure 10: per-rank event rates during the profiled run.
	LoadStoreEvents int64
	MPIEvents       int64
	LoadStoreRate   float64 // events per second per rank
	MPIRate         float64
}

// Fig9 runs the LU strong-scaling study: fixed matrix order n across the
// rank counts (the paper: n=1500, ranks 8…128).
func Fig9(n int, ranksList []int, repeats int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, ranks := range ranksList {
		body := apps.LUWorkload(n)
		native, err := timeRun(ranks, nil, body, repeats)
		if err != nil {
			return nil, fmt.Errorf("lu native %d ranks: %w", ranks, err)
		}
		var stats trace.Stats
		profiled, err := timeRunProfiled(ranks, []string{"matrix", "panel"}, body, repeats, &stats)
		if err != nil {
			return nil, fmt.Errorf("lu profiled %d ranks: %w", ranks, err)
		}
		row := ScalingRow{
			Ranks: ranks, Native: native, Profiled: profiled,
			OverheadPct:     pct(profiled, native),
			LoadStoreEvents: stats.LoadStore,
			MPIEvents:       stats.MPIEvents(),
		}
		secs := profiled.Seconds()
		if secs > 0 {
			row.LoadStoreRate = float64(stats.LoadStore) / secs / float64(ranks)
			row.MPIRate = float64(stats.MPIEvents()) / secs / float64(ranks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WeakScaling runs the weak-scaling counterpart of Figure 9 that the paper
// predicts but does not measure (§VII-B: "For weak scaling experiments,
// the workload assigned to each processing node stays constant, we expect
// a constant overhead when the number of nodes increases"). The Boltzmann
// slab size per rank is fixed, so per-rank computation — and the
// instrumented load/store rate — stays constant as ranks are added.
func WeakScaling(cellsPerRank, steps int, ranksList []int, repeats int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, ranks := range ranksList {
		body := apps.Boltzmann(cellsPerRank, steps)
		native, err := timeRun(ranks, nil, body, repeats)
		if err != nil {
			return nil, fmt.Errorf("boltzmann native %d ranks: %w", ranks, err)
		}
		var stats trace.Stats
		profiled, err := timeRunProfiled(ranks, []string{"lattice"}, body, repeats, &stats)
		if err != nil {
			return nil, fmt.Errorf("boltzmann profiled %d ranks: %w", ranks, err)
		}
		row := ScalingRow{
			Ranks: ranks, Native: native, Profiled: profiled,
			OverheadPct:     pct(profiled, native),
			LoadStoreEvents: stats.LoadStore,
			MPIEvents:       stats.MPIEvents(),
		}
		if secs := profiled.Seconds(); secs > 0 {
			row.LoadStoreRate = float64(stats.LoadStore) / secs / float64(ranks)
			row.MPIRate = float64(stats.MPIEvents()) / secs / float64(ranks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationRow compares the production cross-process detector (Linear:
// the shadow engine's per-target-window scan) against the quadratic
// baseline on a synthetic region with a given operation count.
type AblationRow struct {
	Ops        int
	Linear     time.Duration
	Quadratic  time.Duration
	Agreement  bool // both report the same set of cross-process signatures
	Violations int
}

// Ablation measures analysis time of the two cross-process detectors on
// synthetic single-region traces of growing size (§IV-C-4's complexity
// argument).
func Ablation(opCounts []int) ([]AblationRow, error) {
	for _, n := range opCounts {
		if n < 1 {
			return nil, fmt.Errorf("ablation: op count %d", n)
		}
	}
	var rows []AblationRow
	for _, ops := range opCounts {
		set := SyntheticRegion(16, ops)
		start := time.Now()
		lin, err := core.AnalyzeWith(set, core.Options{CrossProcess: true})
		if err != nil {
			return nil, err
		}
		linT := time.Since(start)

		start = time.Now()
		quad, err := baseline.QuadraticAnalyze(set)
		if err != nil {
			return nil, err
		}
		quadT := time.Since(start)

		rows = append(rows, AblationRow{
			Ops: ops, Linear: linT, Quadratic: quadT,
			Agreement:  slices.Equal(CrossSignatures(lin), CrossSignatures(quad)),
			Violations: len(lin.Violations),
		})
	}
	return rows, nil
}

// CrossSignatures returns the sorted, distinct signatures of rep's
// cross-process violations: what the all-pairs baseline is compared on,
// since its dedup counts and representative instances follow its own pair
// order.
func CrossSignatures(rep *core.Report) []string {
	var out []string
	for _, v := range rep.Violations {
		if v.Class == core.AcrossProcesses {
			out = append(out, v.Signature())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// SyncRow is one row of the SyncChecker comparison (paper §VII).
type SyncRow struct {
	App                string
	ErrorLocation      string
	MCCheckerDetects   bool
	SyncCheckerDetects bool
}

// SyncCheckerComparison runs the bug suite under both the full analyzer
// and the intra-epoch-only baseline.
func SyncCheckerComparison() ([]SyncRow, error) {
	var rows []SyncRow
	for _, bc := range apps.BugCases() {
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		sink := trace.NewMemorySink()
		pr := profiler.New(sink, nil)
		if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
			return nil, err
		}
		set := sink.Set()
		full, err := core.Analyze(set)
		if err != nil {
			return nil, err
		}
		sc, err := baseline.SyncCheckerAnalyze(set)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SyncRow{
			App:                bc.Name,
			ErrorLocation:      bc.ErrorLocation,
			MCCheckerDetects:   len(full.Errors()) > 0,
			SyncCheckerDetects: len(sc.Errors()) > 0,
		})
	}
	return rows, nil
}
