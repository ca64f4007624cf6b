package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fix"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/stanalyzer"
)

// This file is the differential engine-scoring harness: it runs every
// engine the repo ships — the dynamic DN-Analyzer on the default
// schedule, the static epoch-state checker, and the schedule explorer —
// over the registry's planted-bug corpus and over freshly generated
// programs with injected bugs (internal/gen), and scores them against
// ground truth. The gate is asymmetric by design: every planted or
// injected bug must be caught by at least one engine, and every fixed
// variant or clean generated program must be violation-free.

// CorpusConfig sizes one scoring run. Zero values pick defaults small
// enough for CI but large enough to exercise every pattern.
type CorpusConfig struct {
	Generated int    // injected generated programs (default: 3 per pattern)
	Clean     int    // clean generated programs (default 200)
	Seed      uint64 // base seed for generation (default 1)
	Schedules int    // explorer schedules per program (default 12)
	MaxRanks  int    // cap on registry rank counts (default 8)
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.Generated == 0 {
		c.Generated = 3 * len(gen.Patterns())
	}
	if c.Clean == 0 {
		c.Clean = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Schedules == 0 {
		c.Schedules = 12
	}
	if c.MaxRanks == 0 {
		c.MaxRanks = 8
	}
	return c
}

// EngineVerdict is one engine's outcome on one buggy/fixed pair.
type EngineVerdict struct {
	Ran        bool `json:"ran"`
	Detected   bool `json:"detected"`    // buggy variant flagged
	FixedClean bool `json:"fixed_clean"` // fixed variant produced nothing
}

// RepairVerdict is the auto-repair engine's outcome on one bug case:
// whether `mcchecker fix` repaired the planted variant and proved the
// patch against the dynamic engines. It only runs over the planted-bug
// corpus — the other registry cases have no source-level repair harness.
type RepairVerdict struct {
	Ran      bool   `json:"ran"`
	Verified bool   `json:"verified"`
	Steps    int    `json:"steps"`
	Reason   string `json:"reason,omitempty"`
}

// CorpusAppRow scores one registry bug case across the engines.
type CorpusAppRow struct {
	Name          string        `json:"name"`
	Ranks         int           `json:"ranks"`
	ErrorLocation string        `json:"error_location"`
	Dynamic       EngineVerdict `json:"dynamic"`
	Static        EngineVerdict `json:"static"`
	Explore       EngineVerdict `json:"explore"`
	Repair        RepairVerdict `json:"repair"`
}

// Caught reports whether any engine detected the planted bug.
func (r *CorpusAppRow) Caught() bool {
	return r.Dynamic.Detected || r.Static.Detected || r.Explore.Detected
}

// PatternStat aggregates generated-program scoring for one injection
// pattern. The static engine never runs here: generated programs exist
// only as closures, with no source for the checker to read.
type PatternStat struct {
	Pattern         string `json:"pattern"`
	Across          bool   `json:"across"`
	Programs        int    `json:"programs"`
	DynamicDetected int    `json:"dynamic_detected"`
	ExploreDetected int    `json:"explore_detected"`
	CaughtByAny     int    `json:"caught_by_any"`
}

// CorpusResult is the full differential scoring outcome: the
// engine-by-pattern detection matrix plus the pass/fail gates.
type CorpusResult struct {
	Apps     []CorpusAppRow `json:"apps"`
	Patterns []PatternStat  `json:"patterns"`

	CleanPrograms   int `json:"clean_programs"`
	CleanViolations int `json:"clean_violations"`

	AppsCaught      bool    `json:"apps_caught"`      // every registry bug caught by >= 1 engine
	AppsFixedClean  bool    `json:"apps_fixed_clean"` // every fixed variant clean on every engine
	AppsRepaired    bool    `json:"apps_repaired"`    // every corpus case auto-repaired and verified
	GeneratedCaught bool    `json:"generated_caught"` // every injected program caught by >= 1 engine
	CleanOK         bool    `json:"clean_ok"`         // zero violations across clean programs
	Gate            bool    `json:"gate"`             // all of the above
	ElapsedSec      float64 `json:"elapsed_seconds"`
	Seed            uint64  `json:"seed"`
}

// Corpus runs the differential scoring harness.
func Corpus(cfg CorpusConfig) (*CorpusResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &CorpusResult{Seed: cfg.Seed}

	// One static pass per define set covers every app.
	staticBuggy, err := stanalyzer.CheckFS(apps.SourceFS(), stanalyzer.Options{
		Defines: map[string]bool{"buggy": true},
	})
	if err != nil {
		return nil, fmt.Errorf("static check (buggy): %w", err)
	}
	staticFixed, err := stanalyzer.CheckFS(apps.SourceFS(), stanalyzer.Options{
		Defines: map[string]bool{"buggy": false},
	})
	if err != nil {
		return nil, fmt.Errorf("static check (fixed): %w", err)
	}

	// The repair engine only covers the planted-bug corpus.
	corpusCase := map[string]bool{}
	for _, bc := range apps.CorpusCases() {
		corpusCase[bc.Name] = true
	}

	res.AppsCaught, res.AppsFixedClean, res.AppsRepaired = true, true, true
	for _, bc := range apps.AllCases() {
		ranks := bc.Ranks
		if ranks > cfg.MaxRanks {
			ranks = cfg.MaxRanks
		}
		row := CorpusAppRow{Name: bc.Name, Ranks: ranks, ErrorLocation: bc.ErrorLocation}

		wantClass := core.WithinEpoch
		if bc.ErrorLocation == "across processes" {
			wantClass = core.AcrossProcesses
		}

		// Dynamic engine: one default-schedule run of each variant.
		buggyRep, err := runChecked(ranks, bc.Buggy, bc.RelevantBuffers)
		if err != nil {
			return nil, fmt.Errorf("%s buggy: %w", bc.Name, err)
		}
		fixedRep, err := runChecked(ranks, bc.Fixed, bc.RelevantBuffers)
		if err != nil {
			return nil, fmt.Errorf("%s fixed: %w", bc.Name, err)
		}
		row.Dynamic = EngineVerdict{
			Ran:        true,
			Detected:   hasClass(buggyRep, wantClass),
			FixedClean: len(fixedRep.Violations) == 0,
		}

		// Static engine: diagnostics reachable from the app's entry point.
		// Detection counts any confidence; the fixed-side budget is
		// high-confidence only, matching the checker's contract.
		row.Static = EngineVerdict{
			Ran:        true,
			Detected:   len(staticBuggy.ForFunctions(staticBuggy.Reachable(bc.StaticRoot))) > 0,
			FixedClean: countHigh(staticFixed, bc.StaticRoot) == 0,
		}

		// Explore engine: a seeded sweep of legal completion schedules.
		expB, err := exploreBody(bc.Buggy, ranks, bc.RelevantBuffers, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s explore buggy: %w", bc.Name, err)
		}
		expF, err := exploreBody(bc.Fixed, ranks, bc.RelevantBuffers, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s explore fixed: %w", bc.Name, err)
		}
		row.Explore = EngineVerdict{
			Ran:        true,
			Detected:   expB.Distinct() > 0,
			FixedClean: expF.Distinct() == 0,
		}

		// Repair engine: patch the planted variant from its static
		// diagnostics and prove the repair (corpus cases only).
		if corpusCase[bc.Name] {
			cres, err := fix.Repair(bc, fix.VerifyConfig{
				Schedules: cfg.Schedules, Seed: cfg.Seed, MaxRanks: cfg.MaxRanks,
			})
			if err != nil {
				return nil, fmt.Errorf("%s repair: %w", bc.Name, err)
			}
			row.Repair = RepairVerdict{
				Ran: true, Verified: cres.Verified,
				Steps: len(cres.Steps), Reason: cres.Reason,
			}
			if !cres.Verified {
				res.AppsRepaired = false
			}
		}

		if !row.Caught() {
			res.AppsCaught = false
		}
		if !row.Dynamic.FixedClean || !row.Static.FixedClean || !row.Explore.FixedClean {
			res.AppsFixedClean = false
		}
		res.Apps = append(res.Apps, row)
	}

	// Generated programs: round-robin the injection catalog over seeds.
	patterns := gen.Patterns()
	stats := make([]PatternStat, len(patterns))
	for i, p := range patterns {
		stats[i] = PatternStat{Pattern: p.Name, Across: p.Across}
	}
	res.GeneratedCaught = true
	for i := 0; i < cfg.Generated; i++ {
		pi := i % len(patterns)
		seed := cfg.Seed + uint64(i)
		base := gen.Generate(seed, gen.Options{Ranks: 2 + int(seed%3)})
		pr, err := gen.Inject(base, patterns[pi].Name, seed^0x9e3779b9)
		if err != nil {
			return nil, fmt.Errorf("inject %s seed %d: %w", patterns[pi].Name, seed, err)
		}
		stats[pi].Programs++

		wantClass := core.WithinEpoch
		if pr.ExpectAcross {
			wantClass = core.AcrossProcesses
		}
		rep, err := runChecked(pr.Ranks, pr.Body(), nil)
		if err != nil {
			return nil, fmt.Errorf("generated %s seed %d: %w", patterns[pi].Name, seed, err)
		}
		dyn := hasClass(rep, wantClass)
		if dyn {
			stats[pi].DynamicDetected++
		}
		exp, err := exploreGenerated(pr, cfg)
		if err != nil {
			return nil, fmt.Errorf("explore generated %s seed %d: %w", patterns[pi].Name, seed, err)
		}
		if exp {
			stats[pi].ExploreDetected++
		}
		if dyn || exp {
			stats[pi].CaughtByAny++
		} else {
			res.GeneratedCaught = false
		}
	}
	res.Patterns = stats

	// Clean programs: valid-by-construction generation must analyze
	// violation-free — the generator's half of the differential gate.
	res.CleanPrograms = cfg.Clean
	for i := 0; i < cfg.Clean; i++ {
		seed := cfg.Seed + 100_000 + uint64(i)
		pr := gen.Generate(seed, gen.Options{Ranks: 2 + int(seed%3)})
		rep, err := runChecked(pr.Ranks, pr.Body(), nil)
		if err != nil {
			return nil, fmt.Errorf("clean seed %d: %w", seed, err)
		}
		res.CleanViolations += len(rep.Violations)
	}
	res.CleanOK = res.CleanViolations == 0

	res.Gate = res.AppsCaught && res.AppsFixedClean && res.AppsRepaired && res.GeneratedCaught && res.CleanOK
	res.ElapsedSec = time.Since(start).Seconds()
	return res, nil
}

func hasClass(rep *core.Report, want core.Class) bool {
	for _, v := range rep.Errors() {
		if v.Class == want {
			return true
		}
	}
	return false
}

func countHigh(rep *stanalyzer.CheckReport, root string) int {
	n := 0
	for _, d := range rep.ForFunctions(rep.Reachable(root)) {
		if d.Confidence >= stanalyzer.ConfHigh {
			n++
		}
	}
	return n
}

func exploreBody(body func(p *mpi.Proc) error, ranks int, relevant []string, cfg CorpusConfig) (*explore.Result, error) {
	var rel profiler.Relevance
	if relevant != nil {
		rel = profiler.FromNames(relevant)
	}
	return explore.Explore(explore.Config{
		Runner:    &explore.Runner{Body: body, Ranks: ranks, Rel: rel},
		Schedules: cfg.Schedules,
		Seed:      cfg.Seed,
		Minimize:  false,
	})
}

func exploreGenerated(pr *gen.Program, cfg CorpusConfig) (bool, error) {
	res, err := exploreBody(pr.Body(), pr.Ranks, nil, cfg)
	if err != nil {
		return false, err
	}
	return res.Distinct() > 0, nil
}

// MarkdownMatrix renders the engine x pattern detection matrix as
// GitHub-flavored markdown — the artifact `mcchecker corpus -matrix`
// publishes and EXPERIMENTS.md embeds.
func (r *CorpusResult) MarkdownMatrix() string {
	var b strings.Builder
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "NO"
	}
	fmt.Fprintf(&b, "Registry corpus (%d cases):\n\n", len(r.Apps))
	b.WriteString("| Case | Ranks | Class | Dynamic | Static | Explore | Repair | Fixed clean |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for i := range r.Apps {
		row := &r.Apps[i]
		repair := "-"
		if row.Repair.Ran {
			repair = mark(row.Repair.Verified)
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s | %s | %s |\n",
			row.Name, row.Ranks, row.ErrorLocation,
			mark(row.Dynamic.Detected), mark(row.Static.Detected), mark(row.Explore.Detected),
			repair,
			mark(row.Dynamic.FixedClean && row.Static.FixedClean && row.Explore.FixedClean))
	}
	fmt.Fprintf(&b, "\nGenerated programs (seed %d):\n\n", r.Seed)
	b.WriteString("| Injected pattern | Class | Programs | Dynamic | Explore | Any engine |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, p := range r.Patterns {
		class := "within an epoch"
		if p.Across {
			class = "across processes"
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d/%d | %d/%d | %d/%d |\n",
			p.Pattern, class, p.Programs,
			p.DynamicDetected, p.Programs, p.ExploreDetected, p.Programs,
			p.CaughtByAny, p.Programs)
	}
	fmt.Fprintf(&b, "\nClean generated programs: %d analyzed, %d violation(s).\n",
		r.CleanPrograms, r.CleanViolations)
	fmt.Fprintf(&b, "Gate: apps caught %v, fixed clean %v, repaired %v, generated caught %v, clean ok %v => %v\n",
		r.AppsCaught, r.AppsFixedClean, r.AppsRepaired, r.GeneratedCaught, r.CleanOK, r.Gate)
	return b.String()
}
