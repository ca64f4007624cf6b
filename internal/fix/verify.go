package fix

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/explore"
	"repro/internal/mpi"
	"repro/internal/profiler"
)

// VerifyConfig sizes the dynamic proof of one repair.
type VerifyConfig struct {
	Schedules int    // explorer schedules per sweep (default 6)
	Seed      uint64 // explorer seed (default 1)
	MaxRanks  int    // cap on registry rank counts (default 8)
}

func (c VerifyConfig) withDefaults() VerifyConfig {
	if c.Schedules == 0 {
		c.Schedules = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxRanks == 0 {
		c.MaxRanks = 8
	}
	return c
}

// Verdict is one program variant's outcome under the dynamic analyzer
// (default schedule) and the schedule-exploration sweep.
type Verdict struct {
	Err     string `json:"err,omitempty"` // execution error, empty on success
	Dynamic bool   `json:"dynamic"`       // default-schedule run reported violations
	Explore bool   `json:"explore"`       // sweep found violating schedules
}

// Clean reports an error-free run with nothing flagged by either engine.
func (v Verdict) Clean() bool { return v.Err == "" && !v.Dynamic && !v.Explore }

// Matches reports engine-verdict agreement between two variants.
func (v Verdict) Matches(o Verdict) bool {
	return v.Err == o.Err && v.Dynamic == o.Dynamic && v.Explore == o.Explore
}

// Scores are the verdicts of one bug case's two variants.
type Scores struct {
	Buggy Verdict `json:"buggy"`
	Fixed Verdict `json:"fixed"`
}

// CaseResult is the proven (or refuted) repair of one registry bug case.
type CaseResult struct {
	Name  string `json:"name"`
	File  string `json:"file"`
	Ranks int    `json:"ranks"`

	Steps      []Step `json:"steps,omitempty"`
	Iterations int    `json:"iterations"`
	Diff       string `json:"diff,omitempty"`

	// Engine verdicts: the compiled variants (ground truth) and the
	// variants compiled from the patched source (the proof).
	CompiledBuggy Verdict `json:"compiled_buggy"`
	CompiledFixed Verdict `json:"compiled_fixed"`
	PatchedBuggy  Verdict `json:"patched_buggy"`
	PatchedFixed  Verdict `json:"patched_fixed"`

	// Gates. Verified is their conjunction.
	BuggyCaught    bool   `json:"buggy_caught"`    // pristine bug visible to some engine (else there is nothing to prove)
	PatchedClean   bool   `json:"patched_clean"`   // patched planted variant analyzes clean
	CleanPreserved bool   `json:"clean_preserved"` // patched clean variant still clean
	MatchesFixed   bool   `json:"matches_fixed"`   // patched verdicts equal the checked-in fixed variant's
	StaticClean    bool   `json:"static_clean"`    // patched source re-analyzes without diagnostics
	Formatted      bool   `json:"formatted"`       // patched source is gofmt-idempotent
	Typechecks     bool   `json:"typechecks"`      // patched source re-type-checks
	Verified       bool   `json:"verified"`
	Reason         string `json:"reason,omitempty"` // first failing gate, repair error or build error
}

// verdict scores one body on one runner: its run on the default
// schedule, then an exploration sweep.
func (c VerifyConfig) verdict(body func(p *mpi.Proc) error, ranks int, relevant []string) Verdict {
	r := &explore.Runner{Body: body, Ranks: ranks}
	if relevant != nil {
		r.Rel = profiler.FromNames(relevant)
	}
	rep, err := r.Run(nil)
	if err != nil {
		return Verdict{Err: err.Error()}
	}
	res, err := explore.Explore(explore.Config{
		Runner: r, Schedules: c.Schedules, Seed: c.Seed,
	})
	if err != nil {
		return Verdict{Err: err.Error()}
	}
	return Verdict{Dynamic: len(rep.Violations) > 0, Explore: res.Distinct() > 0}
}

// Score scores both variants of one bug case, at its rank count capped by
// MaxRanks. Repair calls it in-process for the compiled variants; the
// probe program, built from the patched source, calls it for the proof.
func (c VerifyConfig) Score(bc apps.BugCase) Scores {
	c = c.withDefaults()
	ranks := min(bc.Ranks, c.MaxRanks)
	return Scores{
		Buggy: c.verdict(bc.Buggy, ranks, bc.RelevantBuffers),
		Fixed: c.verdict(bc.Fixed, ranks, bc.RelevantBuffers),
	}
}

// sourceFor locates the embedded application source file declaring the
// case's entry function.
func sourceFor(root string) (string, []byte, error) {
	entries, err := fs.ReadDir(apps.SourceFS(), ".")
	if err != nil {
		return "", nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		src, err := fs.ReadFile(apps.SourceFS(), name)
		if err != nil {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == root {
				return name, src, nil
			}
		}
	}
	return "", nil, fmt.Errorf("fix: no embedded source declares %q", root)
}

// probe builds the probe program (./internal/fix/probe) with the patched
// file in place of the application file of that name, and scores the
// named corpus case with it, or every corpus case when caseName is empty:
// the verdicts of the program the patch produces, keyed by case name.
func (c VerifyConfig) probe(caseName, file string, patched []byte) (map[string]Scores, error) {
	tc, err := loadToolchain()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "mcchecker-fix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(tc.root, tc.appsDir, file): filepath.Join(dir, file)},
	})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, file), patched, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "run", "-overlay", filepath.Join(dir, "overlay.json"), "./internal/fix/probe",
		"-case", caseName, "-schedules", strconv.Itoa(c.Schedules),
		"-seed", strconv.FormatUint(c.Seed, 10), "-max-ranks", strconv.Itoa(c.MaxRanks))
	cmd.Dir = tc.root
	out, err := cmd.Output()
	if err != nil {
		// Name the patched file as the compiler would name the original.
		msg := cmdError(err).Error()
		return nil, errors.New(strings.ReplaceAll(msg, filepath.Join(dir, file), filepath.Join(tc.appsDir, file)))
	}
	var scores map[string]Scores
	if err := json.Unmarshal(out, &scores); err != nil {
		return nil, fmt.Errorf("fix: reading probe output: %w", err)
	}
	return scores, nil
}

// Repair patches one registry bug case's source and proves the repair
// (see prove). The on-disk copy of the case's source file must equal the
// one this binary embeds, since the proof compiles the on-disk package.
func Repair(bc apps.BugCase, cfg VerifyConfig) (*CaseResult, error) {
	cfg = cfg.withDefaults()
	name, src, err := sourceFor(bc.StaticRoot)
	if err != nil {
		return nil, err
	}
	tc, err := loadToolchain()
	if err != nil {
		return nil, err
	}
	rel := filepath.ToSlash(filepath.Join(tc.appsDir, name))
	if disk, err := os.ReadFile(filepath.Join(tc.root, tc.appsDir, name)); err != nil {
		return nil, err
	} else if !bytes.Equal(disk, src) {
		return nil, fmt.Errorf("fix: %s differs from the copy this binary embeds; rebuild it from this checkout", rel)
	}
	res := &CaseResult{Name: bc.Name, File: name, Ranks: min(bc.Ranks, cfg.MaxRanks)}

	// Ground truth on the compiled variants.
	s := cfg.Score(bc)
	res.CompiledBuggy, res.CompiledFixed = s.Buggy, s.Fixed
	res.BuggyCaught = res.CompiledBuggy.Dynamic || res.CompiledBuggy.Explore

	// The repair itself.
	patch, err := PatchSource(name, src, Config{Root: bc.StaticRoot})
	if err != nil {
		res.Reason = fmt.Sprintf("repair: %v", err)
		return res, nil
	}
	res.Steps, res.Iterations = patch.Steps, patch.Iterations
	res.Diff = UnifiedDiff("a/"+rel, "b/"+rel, src, patch.Patched)
	cfg.prove(res, bc, patch.Patched)
	return res, nil
}

// prove runs the gates on one patched source and sets res.Verified: the
// patched source must re-format, re-type-check and re-analyze statically
// without diagnostics, and it must build. Built, its planted variant must
// analyze clean under the dynamic analyzer and an exploration sweep with
// verdicts matching the checked-in fixed variant, and its clean variant's
// behavior must be preserved.
func (c VerifyConfig) prove(res *CaseResult, bc apps.BugCase, patched []byte) {
	formatted, err := gofmt(patched)
	res.Formatted = err == nil && bytes.Equal(formatted, patched)
	res.Typechecks = Typecheck(res.File, patched) == nil
	_, diags, err := checkScoped(res.File, patched, Config{Root: bc.StaticRoot}.withDefaults())
	res.StaticClean = err == nil && len(diags) == 0

	if scores, err := c.probe(bc.Name, res.File, patched); err != nil {
		res.Reason = fmt.Sprintf("patched source does not build and run: %v", err)
	} else {
		res.PatchedBuggy, res.PatchedFixed = scores[bc.Name].Buggy, scores[bc.Name].Fixed
		res.PatchedClean = res.PatchedBuggy.Clean()
		res.CleanPreserved = res.PatchedFixed.Clean() && res.PatchedFixed.Matches(res.CompiledFixed)
		res.MatchesFixed = res.PatchedBuggy.Matches(res.CompiledFixed)
	}

	gates := []struct {
		ok     bool
		reason string
	}{
		{res.BuggyCaught, "planted bug not visible to any dynamic engine"},
		{res.PatchedClean, "patched planted variant still flagged"},
		{res.CleanPreserved, "patched clean variant no longer clean"},
		{res.MatchesFixed, "patched verdicts differ from the checked-in fixed variant"},
		{res.StaticClean, "patched source still carries static diagnostics"},
		{res.Formatted, "patched source is not gofmt-idempotent"},
		{res.Typechecks, "patched source fails to type-check"},
	}
	res.Verified = true
	for _, g := range gates {
		if !g.ok {
			res.Verified = false
			if res.Reason == "" {
				res.Reason = g.reason
			}
		}
	}
}

// RepairAll repairs every given case, collecting per-case results; the
// error is reserved for infrastructure failures (missing sources, no go
// command, a binary built from another tree).
func RepairAll(cases []apps.BugCase, cfg VerifyConfig) ([]*CaseResult, error) {
	var out []*CaseResult
	for _, bc := range cases {
		res, err := Repair(bc, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bc.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}
