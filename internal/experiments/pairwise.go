package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/trace"
)

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
