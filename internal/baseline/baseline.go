// Package baseline implements the comparison points of the paper's
// evaluation and the reference detectors the tests check the production
// cross-process detector against:
//
//   - Quadratic: the "straightforward method" of §IV-C-4 that examines
//     every pair of operations in a concurrent region against the
//     compatibility table. Its results match the linear detector; its cost
//     is combinatorial in the region size. It exists for the ablation
//     benchmark demonstrating why MC-Checker's per-target-window vectors
//     matter, and as the all-pairs oracle for violation signatures.
//
//   - Pairwise: the §IV-C-4 per-target-window scan written out directly,
//     whose reports the production shadow engine must match byte for byte.
//
//   - SyncChecker: the related tool of §VII that detects only errors
//     occurring within an epoch, missing conflicts across processes.
package baseline

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/trace"
)

// SyncCheckerAnalyze runs intra-epoch-only detection, reproducing
// SyncChecker's coverage (paper §VII: "it cannot detect memory consistency
// errors across processes").
func SyncCheckerAnalyze(set *trace.Set) (*core.Report, error) {
	return core.AnalyzeWith(set, core.Options{IntraEpoch: true, CrossProcess: false})
}

// QuadraticAnalyze detects cross-process conflicts by checking every pair
// of operations in every concurrent region. It reports the same conflicts
// as the linear detector (deduplicated identically) but runs in time
// combinatorial in the number of operations per region.
func QuadraticAnalyze(set *trace.Set) (*core.Report, error) {
	return crossOnly(set, core.QuadraticCrossProcess)
}

// PairwiseAnalyze detects cross-process conflicts with the pairwise
// per-vector reference scan. Its text and JSON reports are byte-identical
// to core.AnalyzeWith(set, core.Options{CrossProcess: true}) at any worker
// count.
func PairwiseAnalyze(set *trace.Set) (*core.Report, error) {
	return crossOnly(set, core.PairwiseCrossProcess)
}

// crossOnly builds the pipeline for set and runs one reference
// cross-process detector over it.
func crossOnly(set *trace.Set, detect func(*model.Model, *dag.DAG) (*core.Report, error)) (*core.Report, error) {
	m, err := model.Build(set)
	if err != nil {
		return nil, err
	}
	ms, err := match.Run(m)
	if err != nil {
		return nil, err
	}
	d, err := dag.Build(m, ms)
	if err != nil {
		return nil, err
	}
	return detect(m, d)
}
