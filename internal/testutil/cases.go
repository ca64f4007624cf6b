package testutil

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// CaseTrace is the trace of one variant of a bundled bug case.
type CaseTrace struct {
	Name string // "<case>/buggy" or "<case>/fixed"
	Set  *trace.Set
}

// CaseTraces runs every apps.AllCases entry, buggy and fixed, under the
// profiler, with its body repeated times and its ranks capped at
// maxRanks, and returns the traces in registry order, buggy first.
func CaseTraces(times, maxRanks int) ([]CaseTrace, error) {
	var out []CaseTrace
	for _, bc := range apps.AllCases() {
		ranks := min(bc.Ranks, maxRanks)
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		for _, v := range []struct {
			name string
			body func(p *mpi.Proc) error
		}{{"buggy", bc.Buggy}, {"fixed", bc.Fixed}} {
			sink := trace.NewMemorySink()
			err := mpi.Run(ranks, mpi.Options{Hook: profiler.New(sink, rel)}, func(p *mpi.Proc) error {
				for i := 0; i < times; i++ {
					if err := v.body(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bc.Name, v.name, err)
			}
			out = append(out, CaseTrace{Name: bc.Name + "/" + v.name, Set: sink.Set()})
		}
	}
	return out, nil
}
