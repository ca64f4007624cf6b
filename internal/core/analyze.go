// Package core implements DN-Analyzer, the offline analysis component of
// MC-Checker (paper §III and §IV-C): it preprocesses the per-rank traces,
// matches synchronization calls, builds the happens-before DAG with its
// concurrent regions, extracts one-sided access epochs, and detects memory
// consistency errors by checking unordered operations against the MPI-2.2
// compatibility rules (Table I).
//
// The two error classes of the paper map to the two detectors:
//
//   - within-epoch conflicts at a single process (Figures 1 and 2a), found
//     by examining the nonblocking operations and local accesses inside
//     each epoch;
//   - conflicts across processes (Figures 2b–2d), found per concurrent
//     region by recording all one-sided operations per target window and
//     then checking local operations of the target processes against them —
//     time linear in the number of operations rather than quadratic.
//
// Detected violations carry the paper's diagnostic information: the pair of
// conflicting operations with file, routine, and line of each.
package core

import (
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/trace"
)

// Analyze runs the full MC-Checker offline pipeline on a trace set.
func Analyze(set *trace.Set) (*Report, error) {
	return AnalyzeWith(set, DefaultOptions())
}

// AnalyzeWith runs the pipeline with explicit detector options. Each
// phase (model build, sync matching, DAG construction, epoch extraction,
// detection) runs through opts.Phase: with opts.Obs set it records a
// wall-time span, the per-phase breakdown of the paper's evaluation
// (§VII), and opts.Ctx, when non-nil, cancels the pipeline cooperatively
// before each phase (and, inside the detectors, between epochs/regions):
// a serving watchdog can reclaim a stuck analysis without killing the
// process.
func AnalyzeWith(set *trace.Set, opts Options) (*Report, error) {
	var (
		m       *model.Model
		ms      *match.Matches
		d       *dag.DAG
		epochs  []*Epoch
		opEpoch map[trace.ID]*Epoch
	)
	err := opts.Phase("model", func() (err error) { m, err = model.Build(set); return })
	if err == nil {
		err = opts.Phase("match", func() (err error) { ms, err = match.Run(m); return })
	}
	if err == nil {
		err = opts.Phase("dag", func() (err error) { d, err = dag.Build(m, ms); return })
	}
	if err == nil {
		err = opts.Phase("epochs", func() (err error) { epochs, opEpoch, err = ExtractEpochs(m); return })
	}
	if err != nil {
		return nil, err
	}
	return NewAnalyzer(m, d, epochs, opEpoch, opts).Run()
}
