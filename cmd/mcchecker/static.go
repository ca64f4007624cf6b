package main

// static.go: `mcchecker analyze -static` — cross-validation of the static
// epoch-state checker (internal/stanalyzer) against the dynamic analyzer.
// The checker runs over the embedded application sources; each selected
// app then runs dynamically on the default schedule, and the static
// diagnostics are matched against the dynamic core.Violation positions:
//
//	confirmed    — a static diagnostic whose class and source location
//	               coincide with a dynamic violation
//	static-only  — flagged statically, silent dynamically (either a false
//	               positive, or a bug the default schedule does not reach —
//	               `mcchecker explore -static-seed` targets these)
//	dynamic-only — found dynamically but missed by the static rules
//	               (runtime-dependent offsets, aliasing beyond the taint
//	               pass, schedule-injected faults)

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/stanalyzer"
)

// crossApp is the cross-validation outcome for one application.
type crossApp struct {
	App         string
	Confirmed   []crossMatch
	StaticOnly  []stanalyzer.Diagnostic
	DynamicOnly []*core.Violation
}

// crossMatch pairs a static diagnostic with the dynamic violation that
// confirms it.
type crossMatch struct {
	Diag stanalyzer.Diagnostic
	Viol *core.Violation
}

// staticCrossValidate runs the static checker and the dynamic pipeline
// over the selected apps and classifies each finding.
func staticCrossValidate(appName string, fixed, jsonOut bool, minConf stanalyzer.Confidence, reg *obs.Registry, statsFormat string) error {
	var cases []apps.BugCase
	if appName != "" {
		bc, ok := findApp(appName)
		if !ok {
			return fmt.Errorf("unknown app %q (try `mcchecker apps`)", appName)
		}
		cases = []apps.BugCase{bc}
	} else {
		cases = apps.AllCases()
	}

	srep, err := stanalyzer.CheckFS(apps.SourceFS(), stanalyzer.Options{
		Defines: map[string]bool{"buggy": !fixed},
		Obs:     reg,
	})
	if err != nil {
		return fmt.Errorf("static check of embedded sources: %w", err)
	}

	progress := io.Writer(os.Stdout)
	if jsonOut {
		progress = os.Stderr
	}
	variant := "buggy"
	if fixed {
		variant = "fixed"
	}
	fmt.Fprintf(progress, "cross-validating %d app(s), %s variant: static checker vs dynamic analyzer\n", len(cases), variant)

	plan, err := faults.Parse("")
	if err != nil {
		return err
	}
	var results []crossApp
	for _, bc := range cases {
		diags := srep.ForFunctions(srep.Reachable(bc.StaticRoot))
		var kept []stanalyzer.Diagnostic
		for _, d := range diags {
			if d.Confidence >= minConf {
				kept = append(kept, d)
			}
		}
		body := bc.Buggy
		if fixed {
			body = bc.Fixed
		}
		runner := &explore.Runner{
			Body: body, Ranks: bc.Ranks,
			Rel: profiler.FromNames(bc.RelevantBuffers), Obs: reg,
		}
		drep, err := runner.Run(plan)
		if err != nil {
			return fmt.Errorf("dynamic run of %s: %w", bc.Name, err)
		}
		results = append(results, classify(bc.Name, kept, drep.Violations))
	}

	if jsonOut {
		return printCrossJSON(results, reg)
	}
	return printCrossText(results, reg, statsFormat)
}

// classify matches static diagnostics against dynamic violations by class
// and source position (Diagnostic.MatchesViolation).
func classify(name string, diags []stanalyzer.Diagnostic, viols []*core.Violation) crossApp {
	res := crossApp{App: name}
	matched := make([]bool, len(viols))
	for _, d := range diags {
		found := false
		for i, v := range viols {
			if d.MatchesViolation(v) {
				matched[i] = true
				if !found {
					res.Confirmed = append(res.Confirmed, crossMatch{Diag: d, Viol: v})
					found = true
				}
			}
		}
		if !found {
			res.StaticOnly = append(res.StaticOnly, d)
		}
	}
	for i, v := range viols {
		if !matched[i] {
			res.DynamicOnly = append(res.DynamicOnly, v)
		}
	}
	return res
}

func shortViolation(v *core.Violation) string {
	return fmt.Sprintf("%s [%s] %s vs %s", v.Rule, v.Class, v.A.Loc(), v.B.Loc())
}

func shortDiag(d *stanalyzer.Diagnostic) string {
	return fmt.Sprintf("%s/%s at %s (%s)", d.Kind, d.Confidence, d.Pos.Filename+":"+fmt.Sprint(d.Pos.Line), d.Fn)
}

func printCrossText(results []crossApp, reg *obs.Registry, statsFormat string) error {
	var nc, ns, nd int
	for _, r := range results {
		fmt.Printf("== %s: %d confirmed, %d static-only, %d dynamic-only ==\n",
			r.App, len(r.Confirmed), len(r.StaticOnly), len(r.DynamicOnly))
		for _, m := range r.Confirmed {
			fmt.Printf("  confirmed     %s\n                ↔ %s\n", shortDiag(&m.Diag), shortViolation(m.Viol))
		}
		for i := range r.StaticOnly {
			fmt.Printf("  static-only   %s\n", shortDiag(&r.StaticOnly[i]))
		}
		for _, v := range r.DynamicOnly {
			fmt.Printf("  dynamic-only  %s\n", shortViolation(v))
		}
		nc += len(r.Confirmed)
		ns += len(r.StaticOnly)
		nd += len(r.DynamicOnly)
	}
	fmt.Printf("cross-validation: %d confirmed, %d static-only, %d dynamic-only across %d app(s)\n",
		nc, ns, nd, len(results))
	if reg != nil {
		fmt.Println("--- run stats ---")
		return writeStats(os.Stdout, reg.Snapshot(), statsFormat)
	}
	return nil
}

func printCrossJSON(results []crossApp, reg *obs.Registry) error {
	type matchJSON struct {
		Kind       string `json:"kind"`
		Confidence string `json:"confidence"`
		Pos        string `json:"pos"`
		Rule       string `json:"rule"`
		Violation  string `json:"violation"`
	}
	type appJSON struct {
		App         string      `json:"app"`
		Confirmed   []matchJSON `json:"confirmed"`
		StaticOnly  []string    `json:"static_only"`
		DynamicOnly []string    `json:"dynamic_only"`
	}
	out := struct {
		Apps  []appJSON     `json:"apps"`
		Stats *obs.Snapshot `json:"stats,omitempty"`
	}{Apps: []appJSON{}}
	for _, r := range results {
		aj := appJSON{App: r.App, Confirmed: []matchJSON{}, StaticOnly: []string{}, DynamicOnly: []string{}}
		for _, m := range r.Confirmed {
			aj.Confirmed = append(aj.Confirmed, matchJSON{
				Kind:       string(m.Diag.Kind),
				Confidence: m.Diag.Confidence.String(),
				Pos:        fmt.Sprintf("%s:%d", m.Diag.Pos.Filename, m.Diag.Pos.Line),
				Rule:       m.Viol.Rule,
				Violation:  shortViolation(m.Viol),
			})
		}
		for i := range r.StaticOnly {
			aj.StaticOnly = append(aj.StaticOnly, shortDiag(&r.StaticOnly[i]))
		}
		for _, v := range r.DynamicOnly {
			aj.DynamicOnly = append(aj.DynamicOnly, shortViolation(v))
		}
		out.Apps = append(out.Apps, aj)
	}
	if reg != nil {
		out.Stats = reg.Snapshot()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
