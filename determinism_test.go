package mcchecker

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// TestReportsByteIdenticalAcrossWorkers is the contract behind the trace
// file round trip: for every bundled bug case, analyzing a trace set in
// memory and again after WriteDir → ReadDir, whose rank files are read
// one at a time through the salvaging reader, must produce byte-identical
// text and JSON reports. (The name predates the serial reader; no worker
// count is left to vary.)
func TestReportsByteIdenticalAcrossWorkers(t *testing.T) {
	for _, bc := range apps.BugCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			ranks := bc.Ranks
			if ranks > 8 {
				ranks = 8
			}
			var rel profiler.Relevance
			if bc.RelevantBuffers != nil {
				rel = profiler.FromNames(bc.RelevantBuffers)
			}
			set, err := simulate(ranks, rel, bc.Buggy)
			if err != nil {
				t.Fatal(err)
			}

			analyze := func(s *trace.Set) (string, []byte) {
				rep, err := core.AnalyzeWith(s, core.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				js, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return rep.String(), js
			}

			baseText, baseJSON := analyze(set)
			if baseText == "" {
				t.Fatal("empty report text")
			}
			dir := t.TempDir()
			if err := trace.WriteDir(dir, set); err != nil {
				t.Fatal(err)
			}
			loaded, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			text, js := analyze(loaded)
			if text != baseText {
				t.Errorf("after ReadDir: report text diverged\n--- in-memory ---\n%s\n--- decoded ---\n%s",
					baseText, text)
			}
			if !bytes.Equal(js, baseJSON) {
				t.Error("after ReadDir: report JSON diverged")
			}
		})
	}
}

// simulate runs a per-rank body under the profiler and returns the trace
// set, exactly like the offline front end would capture it.
func simulate(ranks int, rel profiler.Relevance, body func(p *mpi.Proc) error) (*trace.Set, error) {
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, rel)
	if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
		return nil, err
	}
	return sink.Set(), nil
}

// genCase builds one injected generator program for a pattern, retrying
// a few seeds because not every seed offers sites for every pattern.
func genCase(pattern string, seed uint64) (*gen.Program, error) {
	var lastErr error
	for attempt := 0; attempt < 16; attempt++ {
		s := seed + uint64(attempt)*31
		base := gen.Generate(s, gen.Options{Ranks: 2 + int(s%3)})
		pr, err := gen.Inject(base, pattern, s^0x9e3779b9)
		if err == nil {
			return pr, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// checkEngineAgreement asserts that both production detectors render
// reports byte-identical to their pairwise references on the set, in text
// and JSON, and that the cross-process detector reports the same set of
// cross-process signatures as the all-pairs oracle.
func checkEngineAgreement(t *testing.T, set *trace.Set) {
	t.Helper()
	rep, err := experiments.CheckPairwise(set)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := baseline.QuadraticAnalyze(set)
	if err != nil {
		t.Fatalf("all-pairs: %v", err)
	}
	if got, want := experiments.CrossSignatures(rep), experiments.CrossSignatures(quad); !slices.Equal(got, want) {
		t.Errorf("cross-process signatures differ from the all-pairs oracle\n--- all-pairs ---\n%s\n--- production ---\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

// repeatBody runs body the given number of times per rank; every
// repetition creates fresh windows, so the trace stays a legal execution.
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

// TestShadowPairwiseDifferentialSweep is the detectors' contract: over
// every registry case but schedrace (buggy and fixed, each body repeated
// 8 times with ranks capped at 8, so the same site pairs conflict again in
// region after region and the shadow engine's dedup folds them) and one
// injected generator program per bug pattern, the production cross-process
// and within-epoch detectors must each render byte-identical reports to
// their pairwise references, and the cross-process detector must report
// the all-pairs oracle's set of cross-process signatures.
func TestShadowPairwiseDifferentialSweep(t *testing.T) {
	type sweepCase struct {
		name  string
		ranks int
		rel   profiler.Relevance
		body  func(p *mpi.Proc) error
	}
	var cases []sweepCase
	for _, bc := range apps.AllCases() {
		if bc.Name == "schedrace" {
			continue // its bug needs a schedule the default one does not take
		}
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		var rel profiler.Relevance
		if bc.RelevantBuffers != nil {
			rel = profiler.FromNames(bc.RelevantBuffers)
		}
		cases = append(cases,
			sweepCase{"app/" + bc.Name, ranks, rel, repeatBody(bc.Buggy, 8)},
			sweepCase{"app/" + bc.Name + "/fixed", ranks, rel, repeatBody(bc.Fixed, 8)})
	}
	for pi, p := range gen.Patterns() {
		pr, err := genCase(p.Name, uint64(400+17*pi))
		if err != nil {
			t.Fatalf("gen/%s: %v", p.Name, err)
		}
		cases = append(cases, sweepCase{"gen/" + p.Name, pr.Ranks, nil, pr.Body()})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			set, err := simulate(c.ranks, c.rel, c.body)
			if err != nil {
				t.Fatal(err)
			}
			checkEngineAgreement(t, set)
		})
	}
}

// FuzzShadowDifferential drives checkEngineAgreement over generated RMA
// programs: any seed/pattern combination on which a production detector
// disagrees with its pairwise reference (bytes), or the cross-process
// detector with the all-pairs oracle (signatures), is a crasher.
func FuzzShadowDifferential(f *testing.F) {
	for pi := range gen.Patterns() {
		f.Add(uint64(500+17*pi), uint8(pi))
		f.Add(uint64(42+13*pi), uint8(pi))
	}
	patterns := gen.Patterns()
	f.Fuzz(func(t *testing.T, seed uint64, pi uint8) {
		p := patterns[int(pi)%len(patterns)]
		base := gen.Generate(seed, gen.Options{Ranks: 2 + int(seed%3)})
		pr, err := gen.Inject(base, p.Name, seed^0x9e3779b9)
		if err != nil {
			// Not every seed offers sites for every pattern; exercise the
			// clean base program instead of discarding the input.
			pr = base
		}
		set, err := simulate(pr.Ranks, nil, pr.Body())
		if err != nil {
			t.Skip(fmt.Sprintf("simulate: %v", err))
		}
		checkEngineAgreement(t, set)
	})
}
