package mcchecker

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// traceBugCase simulates one bug case and writes its traces to a
// directory, so the timeline tests exercise the full decode → analyze
// pipeline the CLI runs.
func traceBugCase(t *testing.T, bc apps.BugCase) string {
	t.Helper()
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
	if err := mpi.Run(ranks, mpi.Options{Hook: pr}, bc.Buggy); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.WriteDir(dir, sink.Set()); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTimelineByteIdenticalAcrossWorkers is the determinism contract of
// the causal-tracing layer: a full bug-case analysis recorded in
// deterministic mode (logical ticks, scope lanes) exports byte-identical
// Chrome trace JSON however many times it runs, whichever decode worker
// picks up each rank file.
func TestTimelineByteIdenticalAcrossWorkers(t *testing.T) {
	for _, bc := range apps.BugCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			dir := traceBugCase(t, bc)
			record := func() []byte {
				sc := obs.Scope{Trace: tracing.NewDeterministic()}
				set, err := trace.ReadDirWith(dir, sc)
				if err != nil {
					t.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.Scope = sc
				rep, err := core.AnalyzeWith(set, opts)
				if err != nil {
					t.Fatal(err)
				}
				core.AddWitnessTracks(sc.Trace, rep)
				var buf bytes.Buffer
				if err := sc.Trace.WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := tracing.ValidateChromeTrace(buf.Bytes()); err != nil {
					t.Fatalf("invalid export: %v", err)
				}
				return buf.Bytes()
			}
			if first, second := record(), record(); !bytes.Equal(first, second) {
				t.Error("timeline diverged between two runs")
			}
		})
	}
}

// TestEveryViolationCarriesWitness pins the provenance guarantee: every
// violation the dynamic analyzer reports explains itself with a non-empty
// happens-before witness chain, in the struct, the text rendering, and
// the JSON export.
func TestEveryViolationCarriesWitness(t *testing.T) {
	for _, bc := range apps.BugCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			dir := traceBugCase(t, bc)
			set, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.AnalyzeWith(set, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("%s: no violations detected", bc.Name)
			}
			for i, v := range rep.Violations {
				if len(v.Witness) == 0 {
					t.Errorf("violation %d has no witness chain: %s", i+1, v.Rule)
					continue
				}
				if !bytes.Contains([]byte(v.String()), []byte("witness (happens-before chain left open)")) {
					t.Errorf("violation %d text rendering lacks the witness block", i+1)
				}
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(js, []byte(`"witness"`)) {
				t.Error("JSON export lacks the witness field")
			}
		})
	}
}
