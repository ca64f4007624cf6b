package fix

import (
	"strings"
	"testing"

	"repro/internal/apps"
)

// TestRepairCorpus is the acceptance gate: every planted buggy corpus
// variant must auto-repair to a program that builds and whose dynamic and
// exploration verdicts match its checked-in fixed variant.
func TestRepairCorpus(t *testing.T) {
	for _, bc := range apps.CorpusCases() {
		t.Run(bc.Name, func(t *testing.T) {
			res, err := Repair(bc, VerifyConfig{})
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			if !res.Verified {
				t.Fatalf("repair not verified: %s\ncompiled buggy=%+v fixed=%+v\npatched buggy=%+v fixed=%+v\ndiff:\n%s",
					res.Reason, res.CompiledBuggy, res.CompiledFixed,
					res.PatchedBuggy, res.PatchedFixed, res.Diff)
			}
			if len(res.Steps) == 0 {
				t.Fatalf("verified repair recorded no steps")
			}
			if res.Diff == "" {
				t.Fatalf("verified repair produced an empty diff")
			}
			if want := "+++ b/internal/apps/" + res.File; !strings.Contains(res.Diff, want) {
				t.Fatalf("diff lacks the header %q:\n%s", want, res.Diff)
			}
		})
	}
}

// TestRepairAllAggregates exercises the batch entry point the CLI uses.
func TestRepairAllAggregates(t *testing.T) {
	cases := apps.CorpusCases()
	results, err := RepairAll(cases, VerifyConfig{})
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if len(results) != len(cases) {
		t.Fatalf("got %d results for %d cases", len(results), len(cases))
	}
	for i, res := range results {
		if res.Name != cases[i].Name {
			t.Errorf("result %d is %s, want %s", i, res.Name, cases[i].Name)
		}
		if !res.Verified {
			t.Errorf("%s: not verified: %s", res.Name, res.Reason)
		}
	}
}

// TestProbeMatchesCompiled runs the compile-and-run path on the unpatched
// sources: for every corpus case it must reproduce the verdicts of the
// variants compiled into this test binary, so a probe that ignored the
// case bodies would fail.
func TestProbeMatchesCompiled(t *testing.T) {
	cfg := VerifyConfig{}.withDefaults()
	probed := map[string]map[string]Scores{} // by source file
	for _, bc := range apps.CorpusCases() {
		name, src, err := sourceFor(bc.StaticRoot)
		if err != nil {
			t.Fatal(err)
		}
		if probed[name] == nil {
			if probed[name], err = cfg.probe("", name, src); err != nil {
				t.Fatalf("probe of unpatched %s: %v", name, err)
			}
		}
		got, ok := probed[name][bc.Name]
		if want := cfg.Score(bc); !ok || got != want {
			t.Errorf("%s: probe scored %+v (present %v), in-process %+v", bc.Name, got, ok, want)
		}
	}
}

// TestProveRejectsUnbuildablePatch feeds the proof a source that
// redeclares a function of another file in the package. It type-checks
// alone, so only the build can catch it, and the compiler's message must
// reach Reason.
func TestProveRejectsUnbuildablePatch(t *testing.T) {
	bc := apps.CorpusCases()[0]
	name, src, err := sourceFor(bc.StaticRoot)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(string(src) + "\nfunc Emulate(buggy bool) func(p *mpi.Proc) error { return nil }\n")
	if err := Typecheck(name, bad); err != nil {
		t.Fatalf("the redeclaring source must pass Typecheck to test the build: %v", err)
	}
	res := &CaseResult{Name: bc.Name, File: name}
	VerifyConfig{}.withDefaults().prove(res, bc, bad)
	if res.Verified || !strings.Contains(res.Reason, "redeclared") {
		t.Fatalf("verified=%v reason=%q, want unverified with the compiler's redeclaration error", res.Verified, res.Reason)
	}
}
