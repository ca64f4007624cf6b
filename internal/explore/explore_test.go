package explore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/stanalyzer"
)

// schedRunner builds the Runner for the planted schedule-dependent bug.
func schedRunner(t *testing.T, buggy bool) *Runner {
	t.Helper()
	bc := apps.ScheduleCases()[0]
	if bc.Name != "schedrace" {
		t.Fatalf("registry: first schedule case is %q, want schedrace", bc.Name)
	}
	body := bc.Buggy
	if !buggy {
		body = bc.Fixed
	}
	return &Runner{
		Body:  body,
		Ranks: bc.Ranks,
		Rel:   profiler.FromNames(bc.RelevantBuffers),
	}
}

// TestPlantedBugCleanOnDefaultSchedule is the precondition that makes
// exploration necessary: a single plain run of the buggy program (no
// plan at all, and the seed-0 identity schedule) finds nothing.
func TestPlantedBugCleanOnDefaultSchedule(t *testing.T) {
	r := schedRunner(t, true)
	for _, plan := range []*faults.Plan{nil, {Seed: 0}} {
		rep, err := r.Run(plan)
		if err != nil {
			t.Fatalf("Run(%v): %v", plan, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("Run(%v): default schedule found %d violations, want clean:\n%s",
				plan, len(rep.Violations), rep)
		}
	}
}

// schedHints returns the origin ranks the static checker's diagnostics on
// the buggy schedrace name, the hints `mcchecker explore -static-seed`
// passes.
func schedHints(t *testing.T) []int {
	t.Helper()
	srep, err := stanalyzer.CheckFS(apps.SourceFS(), stanalyzer.Options{
		Defines: map[string]bool{"buggy": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	hints := HintsFromDiagnostics(srep.ForFunctions(srep.Reachable("SchedRace")))
	if len(hints) == 0 {
		t.Fatal("static checker produced no rank hints for schedrace")
	}
	return hints
}

// strategies returns the hints of the two schedule sequences Explore runs,
// keyed by their StrategyName: the plain seed sweep and the sweep after
// the static hints' delay plans.
func strategies(t *testing.T) map[string][]int {
	hints := schedHints(t)
	return map[string][]int{StrategyName(nil): nil, StrategyName(hints): hints}
}

// TestEveryStrategyCatchesPlantedBug: the sweep, hinted or not, must
// expose the interleaving-dependent violation within a bounded schedule
// budget, and the finding must replay.
func TestEveryStrategyCatchesPlantedBug(t *testing.T) {
	for name, hints := range strategies(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Explore(Config{
				Runner:    schedRunner(t, true),
				Hints:     hints,
				Schedules: 32,
				Seed:      1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != name {
				t.Errorf("Result.Strategy = %q, want %q", res.Strategy, name)
			}
			if res.Distinct() != 1 {
				t.Fatalf("%s: found %d distinct violations in %d schedules, want exactly 1",
					name, res.Distinct(), res.Schedules)
			}
			f := res.Findings[0]
			if !strings.Contains(f.Signature, "pending Get") {
				t.Errorf("%s: unexpected signature %q", name, f.Signature)
			}
			// The finding must replay: the plan string round-trips through
			// the -faults DSL and reproduces the same signature.
			plan, err := faults.Parse(f.FirstPlan.String())
			if err != nil {
				t.Fatalf("parsing replay plan %q: %v", f.FirstPlan, err)
			}
			rep, err := schedRunner(t, true).Run(plan)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, v := range rep.Violations {
				found = found || v.Signature() == f.Signature
			}
			if !found {
				t.Errorf("%s: replaying %q did not reproduce %s", name, f.FirstPlan, f.Signature)
			}
		})
	}
}

// TestFixedVariantCleanUnderEveryStrategy: the fixed program stays clean
// across the same sweeps that catch the buggy one.
func TestFixedVariantCleanUnderEveryStrategy(t *testing.T) {
	for name, hints := range strategies(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := Explore(Config{
				Runner:    schedRunner(t, false),
				Hints:     hints,
				Schedules: 16,
				Seed:      1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Distinct() != 0 {
				t.Fatalf("%s: fixed variant produced %d findings:\n%+v",
					name, res.Distinct(), res.Findings[0])
			}
		})
	}
}

// TestSweepFindsScheduleRaceEarly pins the measurement that left the seed
// sweep as the only strategy (EXPERIMENTS.md, "One exploration
// strategy"): over 100 disjoint sweeps of schedrace at base seeds
// k·100003 the first violating schedule was at most 7, and the hinted
// sweep's was always 0. Here k = 1…20, with twice the measured bound.
func TestSweepFindsScheduleRaceEarly(t *testing.T) {
	hints := schedHints(t)
	r := schedRunner(t, true)
	for k := uint64(1); k <= 20; k++ {
		seed := k * 100003
		res, err := Explore(Config{Runner: r, Schedules: 16, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Distinct() == 0 {
			t.Errorf("seed %d: the sweep found nothing in 16 schedules", seed)
		}
		res, err = Explore(Config{Runner: r, Hints: hints, Schedules: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Distinct() == 0 {
			t.Errorf("seed %d: the hinted sweep's schedule 0 (%s) found nothing",
				seed, schedulePlan(0, seed, hints, r.Ranks))
		}
	}
}

// TestDedupAcrossManySchedules is the acceptance sweep: across ≥1000
// schedules the planted bug collapses to exactly one distinct violation,
// however many schedules trigger it.
func TestDedupAcrossManySchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-schedule sweep skipped in -short mode")
	}
	reg := obs.NewRegistry()
	r := schedRunner(t, true)
	r.Obs = reg
	res, err := Explore(Config{
		Runner:    r,
		Schedules: 1000,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 1000 {
		t.Fatalf("completed %d schedules, want 1000", res.Schedules)
	}
	if res.Distinct() != 1 {
		t.Fatalf("found %d distinct violations, want 1 (dedup failed)", res.Distinct())
	}
	f := res.Findings[0]
	if f.Count < 100 {
		t.Errorf("signature seen in only %d/1000 schedules; the race should flip often", f.Count)
	}
	if got := reg.Counter("mcchecker_explore_schedules_total").Value(); got != 1000 {
		t.Errorf("obs schedules counter = %d, want 1000", got)
	}
	if got := reg.Gauge("mcchecker_explore_distinct_violations").Value(); got != 1 {
		t.Errorf("obs distinct gauge = %d, want 1", got)
	}
}

// TestFindingsIndependentOfJobs: the aggregate (signatures, counts,
// first-producing schedule, example) must not depend on worker count.
func TestFindingsIndependentOfJobs(t *testing.T) {
	run := func(jobs int) *Result {
		res, err := Explore(Config{
			Runner:    schedRunner(t, true),
			Schedules: 64,
			Jobs:      jobs,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, jobs := range []int{2, 8} {
		got := run(jobs)
		if got.Schedules != want.Schedules || got.Violating != want.Violating {
			t.Fatalf("jobs=%d: %d/%d schedules violating, want %d/%d",
				jobs, got.Violating, got.Schedules, want.Violating, want.Schedules)
		}
		if len(got.Findings) != len(want.Findings) {
			t.Fatalf("jobs=%d: %d findings, want %d", jobs, len(got.Findings), len(want.Findings))
		}
		for i, f := range got.Findings {
			w := want.Findings[i]
			if f.Signature != w.Signature || f.Count != w.Count ||
				f.FirstIndex != w.FirstIndex || f.FirstPlan.String() != w.FirstPlan.String() {
				t.Errorf("jobs=%d finding %d: {%s %d %d %s} differs from jobs=1 {%s %d %d %s}",
					jobs, i, f.Signature, f.Count, f.FirstIndex, f.FirstPlan,
					w.Signature, w.Count, w.FirstIndex, w.FirstPlan)
			}
		}
	}
}

// TestBudgetStopsFeedingSchedules: an already-expired budget admits no
// new schedules (in-flight ones would still finish and be counted).
func TestBudgetStopsFeedingSchedules(t *testing.T) {
	res, err := Explore(Config{
		Runner:    schedRunner(t, true),
		Schedules: 1000,
		Budget:    time.Nanosecond,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules >= 1000 {
		t.Fatalf("budget of 1ns still completed all %d schedules", res.Schedules)
	}
}

// TestRegistrySweepDeterministic explores every registry app for a few
// schedules, twice, asserting no panics, no run failures, and a
// schedule-sweep aggregate that is identical between repetitions.
func TestRegistrySweepDeterministic(t *testing.T) {
	for _, bc := range apps.AllCases() {
		bc := bc
		t.Run(bc.Name, func(t *testing.T) {
			t.Parallel()
			schedules := 3
			if bc.Ranks > 8 && testing.Short() {
				schedules = 2
			}
			sweep := func() []string {
				res, err := Explore(Config{
					Runner: &Runner{
						Body:  bc.Buggy,
						Ranks: bc.Ranks,
						Rel:   profiler.FromNames(bc.RelevantBuffers),
					},
					Schedules: schedules,
					Jobs:      2,
					Seed:      7,
				})
				if err != nil {
					t.Fatalf("explore %s: %v", bc.Name, err)
				}
				var sigs []string
				for _, f := range res.Findings {
					sigs = append(sigs, fmt.Sprintf("%s x%d first=%d", f.Signature, f.Count, f.FirstIndex))
				}
				return sigs
			}
			a, b := sweep(), sweep()
			if len(a) != len(b) {
				t.Fatalf("nondeterministic sweep: %d findings then %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("nondeterministic finding %d:\n  %s\n  %s", i, a[i], b[i])
				}
			}
		})
	}
}

// TestSoakInvariance: the soak harness accepts schedule-invariant apps
// and returns the first report.
func TestSoakInvariance(t *testing.T) {
	bc := apps.BugCases()[0] // emulate: deterministic violation on every schedule
	rep, err := Soak(&Runner{
		Body:  bc.Buggy,
		Ranks: bc.Ranks,
		Rel:   profiler.FromNames(bc.RelevantBuffers),
	}, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("soak returned a clean report for the emulate bug")
	}
}

// TestSoakDetectsDivergence: schedrace is schedule-*dependent*, so a
// seed-varied soak over a flipping schedule must detect the divergence
// rather than average it away.
func TestSoakDetectsDivergence(t *testing.T) {
	_, err := Soak(schedRunner(t, true), &faults.Plan{Seed: 1, Reorder: true}, 16)
	if err == nil {
		t.Fatal("soak over a schedule-dependent bug reported invariance")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected soak error: %v", err)
	}
}

// TestStrategyPlansDeterministic: schedule i's plan is a pure function
// of (i, base, hints, ranks), for the sweep and the hinted sweep.
func TestStrategyPlansDeterministic(t *testing.T) {
	for _, hints := range [][]int{nil, {1, 3}} {
		for i := 0; i < 12; i++ {
			a := schedulePlan(i, 42, hints, 4).String()
			b := schedulePlan(i, 42, hints, 4).String()
			if a != b {
				t.Errorf("%s: plan %d not deterministic: %q vs %q", StrategyName(hints), i, a, b)
			}
			if _, err := faults.Parse(a); err != nil {
				t.Errorf("%s: plan %d does not round-trip the DSL: %v", StrategyName(hints), i, err)
			}
		}
	}
}
