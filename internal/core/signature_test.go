package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

func sigViolation(rankA, rankB int32, win int32, region int, overlap memory.Interval) *Violation {
	return &Violation{
		Severity: SevError,
		Class:    AcrossProcesses,
		Rule:     "local store conflicts with a remote Put",
		A: trace.Event{Kind: trace.KindStore, Rank: rankA,
			File: "/tmp/src/app.go", Line: 42, Func: "repro/internal/apps.body"},
		B: trace.Event{Kind: trace.KindPut, Rank: rankB,
			File: "/tmp/src/app.go", Line: 17, Func: "repro/internal/apps.body"},
		Win: win, Region: region, Overlap: overlap, Count: 1,
	}
}

// TestSignatureRankStable is the contract the schedule explorer depends
// on: permuting rank IDs (and everything else placement- or
// schedule-dependent — window IDs, region indexes, overlap offsets,
// counts) must not change the signature.
func TestSignatureRankStable(t *testing.T) {
	base := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	perms := []*Violation{
		sigViolation(1, 0, 3, 2, memory.Iv(100, 8)),  // ranks swapped
		sigViolation(5, 63, 3, 2, memory.Iv(100, 8)), // ranks relabeled
		sigViolation(0, 1, 7, 2, memory.Iv(100, 8)),  // different window id
		sigViolation(0, 1, 3, 9, memory.Iv(100, 8)),  // different region
		sigViolation(0, 1, 3, 2, memory.Iv(512, 4)),  // different overlap
	}
	for i, v := range perms {
		if v.Signature() != base.Signature() {
			t.Errorf("perm %d: signature changed:\n  base %s\n  perm %s", i, base.Signature(), v.Signature())
		}
	}
	if base.Signature() == "" || !strings.Contains(base.Signature(), "app.go:42") {
		t.Errorf("signature %q should carry the call sites", base.Signature())
	}
}

// TestSignatureSwappedOperandsStable: the (A, B) operand order is an
// artifact of detection order; the signature must not depend on it.
func TestSignatureSwappedOperandsStable(t *testing.T) {
	v := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	w := &Violation{Severity: v.Severity, Class: v.Class, Rule: v.Rule,
		A: v.B, B: v.A, Win: v.Win, Region: v.Region, Overlap: v.Overlap}
	if v.Signature() != w.Signature() {
		t.Errorf("operand swap changed signature:\n  %s\n  %s", v.Signature(), w.Signature())
	}
}

// TestSignatureSeparatesDistinctBugs: different rule, site, severity, or
// class must produce different signatures.
func TestSignatureSeparatesDistinctBugs(t *testing.T) {
	base := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	diffRule := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	diffRule.Rule = "another rule"
	diffSite := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	diffSite.A.Line = 43
	diffSev := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	diffSev.Severity = SevWarning
	diffClass := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	diffClass.Class = WithinEpoch
	for i, v := range []*Violation{diffRule, diffSite, diffSev, diffClass} {
		if v.Signature() == base.Signature() {
			t.Errorf("variant %d: distinct bug collided with base signature %q", i, base.Signature())
		}
	}
}

// referenceKey and referenceSignature are the original fmt.Sprintf
// renderings that the cached strings.Builder paths replaced. The cached
// values must stay byte-identical to them: signatures are persisted in
// explorer findings and golden reports.
func referenceKey(v *Violation) string {
	a := fmt.Sprintf("%s@%s#%s", v.A.Kind, v.A.Loc(), v.A.Func)
	b := fmt.Sprintf("%s@%s#%s", v.B.Kind, v.B.Loc(), v.B.Func)
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("%s|%s|%s|%d", a, b, v.Rule, v.Win)
}

func referenceSignature(v *Violation) string {
	a := fmt.Sprintf("%s@%s#%s", v.A.Kind, v.A.Loc(), shortFunc(v.A.Func))
	b := fmt.Sprintf("%s@%s#%s", v.B.Kind, v.B.Loc(), shortFunc(v.B.Func))
	if b < a {
		a, b = b, a
	}
	win := "nowin"
	if v.Win != 0 || v.Class == AcrossProcesses {
		win = "win"
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|%s", v.Severity, v.Class, v.Rule, a, b, win)
}

// TestSignatureMatchesSprintfReference pins the cached identity strings
// to the historical fmt.Sprintf formats across the tricky shapes: empty
// file (Loc "?"), empty func, path-qualified func names, warning
// severity, both classes, zero and nonzero windows.
func TestSignatureMatchesSprintfReference(t *testing.T) {
	cases := []*Violation{
		sigViolation(0, 1, 3, 2, memory.Iv(100, 8)),
		sigViolation(5, 2, 0, 0, memory.Interval{}),
		{
			Severity: SevWarning, Class: WithinEpoch,
			Rule: "Put and Get to overlapping target regions within one epoch",
			A:    trace.Event{Kind: trace.KindPut}, // no file, no func
			B:    trace.Event{Kind: trace.KindGet, File: "x.go", Line: 1, Func: "f"},
			Win:  0,
		},
		{
			Severity: SevError, Class: AcrossProcesses,
			Rule: "rule",
			A:    trace.Event{Kind: trace.KindStore, File: "/deep/a/b/c.go", Line: 999, Func: "pkg/sub.fn"},
			B:    trace.Event{Kind: trace.KindAccumulate, File: "c.go", Line: 999, Func: "fn"},
			Win:  -7,
		},
	}
	for i, v := range cases {
		if got, want := v.Key(), referenceKey(v); got != want {
			t.Errorf("case %d key:\n got %q\nwant %q", i, got, want)
		}
		if got, want := v.Signature(), referenceSignature(v); got != want {
			t.Errorf("case %d signature:\n got %q\nwant %q", i, got, want)
		}
		// Cached: a second call returns the same string.
		if v.Signature() != referenceSignature(v) || v.Key() != referenceKey(v) {
			t.Errorf("case %d: cached value differs from first computation", i)
		}
	}
}

// BenchmarkSignature measures the first (cache-filling) identity
// computation — the cost every deduplicated violation pays once.
func BenchmarkSignature(b *testing.B) {
	template := *sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := template
		if v.Signature() == "" {
			b.Fatal("empty signature")
		}
	}
}

// BenchmarkViolationKey measures the dedup-key computation the same way.
func BenchmarkViolationKey(b *testing.B) {
	template := *sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := template
		if v.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// TestSortBySignatureDeterministic: shuffled insertion orders converge to
// one output order.
func TestSortBySignatureDeterministic(t *testing.T) {
	mk := func() []*Violation {
		a := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
		b := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
		b.Rule = "zz later rule"
		c := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
		c.Severity = SevWarning
		d := sigViolation(0, 1, 3, 2, memory.Iv(100, 8))
		d.Class = WithinEpoch
		return []*Violation{a, b, c, d}
	}
	r1 := &Report{Violations: mk()}
	vs := mk()
	r2 := &Report{Violations: []*Violation{vs[3], vs[1], vs[0], vs[2]}}
	r1.Sort()
	r2.Sort()
	for i := range r1.Violations {
		if r1.Violations[i].Signature() != r2.Violations[i].Signature() {
			t.Fatalf("position %d: %s vs %s", i, r1.Violations[i].Signature(), r2.Violations[i].Signature())
		}
	}
}
