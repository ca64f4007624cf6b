package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

var updateReports = flag.Bool("update-reports", false,
	"rewrite testdata/reports.golden instead of diffing against it")

// reportsGolden holds the text report of every AllCases variant and of two
// degraded runs. Reports name files by base name only, so it does not
// depend on where the checkout lives.
const reportsGolden = "testdata/reports.golden"

// TestReportTextGolden renders the text report of every AllCases variant,
// buggy and fixed, and of a crashed and a truncated jacobi run, and
// compares them byte for byte with reportsGolden. Regenerate with
//
//	go test ./internal/core -run ReportTextGolden -update-reports
func TestReportTextGolden(t *testing.T) {
	cases, err := testutil.CaseTraces(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range cases {
		rep, err := core.AnalyzeWith(c.Set, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		fmt.Fprintf(&buf, "=== %s\n%s", c.Name, rep)
	}
	for _, plan := range []string{"crash=1@20", "trunc=0.5@1"} {
		rep := degradedJacobi(t, plan)
		if len(rep.Degraded) == 0 {
			t.Fatalf("jacobi under %s: report not degraded", plan)
		}
		fmt.Fprintf(&buf, "=== jacobi/buggy -faults %s\n%s", plan, rep)
	}
	got := buf.Bytes()
	if *updateReports {
		if err := os.MkdirAll(filepath.Dir(reportsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", reportsGolden)
		return
	}
	want, err := os.ReadFile(reportsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("text reports differ from %s at line %d:\n got: %q\nwant: %q\n"+
					"regenerate with: go test ./internal/core -run ReportTextGolden -update-reports",
					reportsGolden, i+1, g, w)
			}
		}
	}
}

// degradedJacobi runs the buggy jacobi case under a fault plan, as
// `mcchecker run -app jacobi -faults PLAN` does, and returns its report.
// Each event's file is cut to its base name before any truncation, so the
// byte counts a truncation note gives do not depend on the checkout path.
func degradedJacobi(t *testing.T, dsl string) *core.Report {
	t.Helper()
	plan, err := faults.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	for _, bc := range apps.AllCases() {
		if bc.Name != "jacobi" {
			continue
		}
		r := &explore.Runner{Body: bc.Buggy, Ranks: bc.Ranks, Rel: profiler.FromNames(bc.RelevantBuffers),
			OnTrace: func(set *trace.Set) {
				for _, tr := range set.Traces {
					for i := range tr.Events {
						tr.Events[i].File = path.Base(tr.Events[i].File)
					}
				}
			}}
		rep, err := r.Run(plan)
		if err != nil {
			t.Fatalf("jacobi under %s: %v", dsl, err)
		}
		return rep
	}
	t.Fatal("no jacobi case")
	return nil
}
