// Package mcchecker is the public entry point of the MC-Checker
// reproduction: a detector of memory consistency errors in MPI one-sided
// applications (Chen et al., SC 2014), together with the in-process MPI-2.2
// simulator the applications run on.
//
// The three components of the paper map onto this module as follows:
//
//   - ST-Analyzer (static selection of variables to instrument):
//     StaticAnalyze / internal/stanalyzer, operating on the Go source of
//     applications written against the simulator's MPI interface.
//   - Profiler (online event collection): attached automatically by Run,
//     or manually via internal/profiler as an mpi.Hook.
//   - DN-Analyzer (offline trace analysis and error detection): Check /
//     AnalyzeTraceDir / internal/core.
//
// A minimal round trip:
//
//	report, err := mcchecker.Run(mcchecker.Config{Ranks: 2}, func(p *mpi.Proc) error {
//		win := p.Alloc(64, "win")
//		w := p.WinCreate(win, 1, p.CommWorld())
//		w.Fence(mpi.AssertNone)
//		// ... one-sided communication ...
//		w.Fence(mpi.AssertNone)
//		w.Free()
//		return nil
//	})
//
// Violations are reported with the paper's diagnostics: the pair of
// conflicting operations, each with file, routine and line.
package mcchecker

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/stanalyzer"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Re-exported result types.
type (
	// Report is the analysis result: violations plus statistics.
	Report = core.Report
	// Violation is one detected memory consistency error or warning.
	Violation = core.Violation
	// StaticReport is ST-Analyzer's list of relevant variables.
	StaticReport = stanalyzer.Report
)

// Severity and class constants, re-exported for matching on violations.
const (
	SevError        = core.SevError
	SevWarning      = core.SevWarning
	WithinEpoch     = core.WithinEpoch
	AcrossProcesses = core.AcrossProcesses
)

// Config controls a checked run.
type Config struct {
	// Ranks is the number of simulated MPI processes (required, > 0).
	Ranks int

	// Relevant lists the buffer names to instrument, typically from
	// StaticAnalyze(...).BufferNames(). Nil instruments every tracked
	// buffer (full instrumentation — higher overhead, same detections on
	// programs whose relevant set is complete).
	Relevant []string

	// TraceDir, when non-empty, persists the per-rank trace files there
	// (like the paper's Profiler writing to local disk) in addition to the
	// in-memory analysis.
	TraceDir string

	// IntraEpochOnly disables cross-process detection, reproducing the
	// SyncChecker baseline.
	IntraEpochOnly bool

	// CollectStats enables the observability layer for the run: simulator,
	// profiler, and analyzer metrics (per-phase wall times, event and epoch
	// counts) are collected and attached to Report.Stats. Off by default;
	// the disabled path costs one pointer check per instrumented site.
	CollectStats bool
}

// Run executes the program on Config.Ranks simulated MPI ranks with the
// profiler attached, then runs the offline analysis and returns the report.
// A run error (deadlock, MPI misuse, or the body's own error) is returned
// without analysis.
func Run(cfg Config, body func(p *mpi.Proc) error) (*Report, error) {
	var reg *obs.Registry
	if cfg.CollectStats {
		reg = obs.NewRegistry()
	}
	set, err := traceWith(cfg, body, reg)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if cfg.IntraEpochOnly {
		opts.CrossProcess = false
	}
	opts.Obs = reg
	rep, err := core.AnalyzeWith(set, opts)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		rep.Stats = reg.Snapshot()
	}
	return rep, nil
}

// Trace executes the program with the profiler attached and returns the
// collected trace set without analyzing it.
func Trace(cfg Config, body func(p *mpi.Proc) error) (*trace.Set, error) {
	return traceWith(cfg, body, nil)
}

func traceWith(cfg Config, body func(p *mpi.Proc) error, reg *obs.Registry) (*trace.Set, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("mcchecker: Config.Ranks must be positive")
	}
	sink := trace.NewMemorySink()
	var rel profiler.Relevance
	if cfg.Relevant != nil {
		rel = profiler.FromNames(cfg.Relevant)
	}
	pr := profiler.NewObs(sink, rel, reg)
	if err := mpi.Run(cfg.Ranks, mpi.Options{Hook: pr, Obs: reg}, body); err != nil {
		return nil, err
	}
	set := sink.Set()
	if cfg.TraceDir != "" {
		if err := trace.WriteDirObs(cfg.TraceDir, set, reg); err != nil {
			return nil, fmt.Errorf("mcchecker: writing traces: %w", err)
		}
	}
	return set, nil
}

// Check analyzes an already-collected trace set with the full detector.
func Check(set *trace.Set) (*Report, error) {
	return core.Analyze(set)
}

// RunOnline executes the program with the streaming analyzer attached
// (the online mode the paper proposes in §VII-B): completed concurrent
// regions are analyzed while the program is still running, onViolation
// fires as soon as each distinct violation is found, and analyzed events
// are discarded so memory stays bounded by the largest region. The final
// report is equivalent to Run's. No trace set is ever collected, so
// Config.TraceDir must be empty.
func RunOnline(cfg Config, body func(p *mpi.Proc) error, onViolation func(v *Violation)) (*Report, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("mcchecker: Config.Ranks must be positive")
	}
	if cfg.TraceDir != "" {
		return nil, fmt.Errorf("mcchecker: RunOnline writes no trace files (Config.TraceDir %q)", cfg.TraceDir)
	}
	var reg *obs.Registry
	if cfg.CollectStats {
		reg = obs.NewRegistry()
	}
	sc := stream.New(cfg.Ranks, onViolation)
	sc.SetObs(reg)
	var rel profiler.Relevance
	if cfg.Relevant != nil {
		rel = profiler.FromNames(cfg.Relevant)
	}
	pr := profiler.NewObs(sc, rel, reg)
	if err := mpi.Run(cfg.Ranks, mpi.Options{Hook: pr, Obs: reg}, body); err != nil {
		return nil, err
	}
	rep, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	if reg != nil {
		rep.Stats = reg.Snapshot()
	}
	return rep, nil
}

// AnalyzeTraceDir loads the per-rank trace files from dir (as written by a
// previous run with Config.TraceDir) and analyzes them — the offline
// workflow of the paper's DN-Analyzer.
func AnalyzeTraceDir(dir string) (*Report, error) {
	set, err := trace.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	return core.Analyze(set)
}

// StaticAnalyze runs ST-Analyzer over the Go source directory of an
// application, returning the relevant-variable report whose BufferNames
// feed Config.Relevant.
func StaticAnalyze(dir string) (*StaticReport, error) {
	return stanalyzer.AnalyzeDir(dir)
}
