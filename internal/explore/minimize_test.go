package explore

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestDdminOneMinimal: ddmin on a synthetic predicate reduces to the
// exact load-bearing subset.
func TestDdminOneMinimal(t *testing.T) {
	atoms := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	needs := func(want ...string) func([]string) bool {
		return func(got []string) bool {
			have := map[string]bool{}
			for _, a := range got {
				have[a] = true
			}
			for _, w := range want {
				if !have[w] {
					return false
				}
			}
			return true
		}
	}
	cases := []struct {
		name string
		test func([]string) bool
		want string
	}{
		{"single", needs("c"), "c"},
		{"pair", needs("c", "f"), "c f"},
		{"ends", needs("a", "h"), "a h"},
		{"triple", needs("b", "d", "g"), "b d g"},
	}
	for _, tc := range cases {
		got := ddmin(append([]string(nil), atoms...), tc.test)
		if strings.Join(got, " ") != tc.want {
			t.Errorf("%s: ddmin = %v, want [%s]", tc.name, got, tc.want)
		}
	}
}

// TestMinimizeSchedule: a deliberately over-specified schedule plan that
// exposes the planted bug shrinks to fewer clauses, and the minimized
// plan string replays through the -faults DSL to the same signature.
func TestMinimizeSchedule(t *testing.T) {
	r := schedRunner(t, true)
	// delay=0@0 pushes rank 0's swap behind rank 1's in the load-bearing
	// batch, so this plan flips the race no matter what the other
	// clauses do; they are pure noise for ddmin to strip.
	plan, err := faults.Parse("seed=5,reorder,yield=25,delay=0@0,delay=1@6")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("over-specified plan does not expose the bug; test premise broken")
	}
	sig := rep.Violations[0].Signature()

	min, runs, err := Minimize(r, plan, sig, 64)
	if err != nil {
		t.Fatal(err)
	}
	if min == nil {
		t.Fatal("Minimize failed to reproduce a deterministic finding")
	}
	if runs > 64 {
		t.Errorf("Minimize spent %d runs, budget was 64", runs)
	}
	got, orig := min.ScheduleAtoms(), plan.ScheduleAtoms()
	if len(got) >= len(orig) {
		t.Errorf("minimization kept %d of %d atoms: %v", len(got), len(orig), got)
	}
	// 1-minimality: removing any surviving atom must lose the signature.
	for i := range got {
		sub := append(append([]string(nil), got[:i]...), got[i+1:]...)
		cand, err := plan.WithScheduleAtoms(sub)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(cand)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			if v.Signature() == sig {
				t.Errorf("not 1-minimal: dropping %q still reproduces", got[i])
			}
		}
	}
	// The minimized plan replays via the DSL string.
	replayed, err := faults.Parse(min.String())
	if err != nil {
		t.Fatalf("minimized plan %q does not parse: %v", min, err)
	}
	rep, err = r.Run(replayed)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		found = found || v.Signature() == sig
	}
	if !found {
		t.Errorf("minimized plan %q does not reproduce %s", min, sig)
	}
}

// TestMinimizeFlakyFinding: a plan that does not reproduce the target
// signature yields a nil plan, not an error.
func TestMinimizeFlakyFinding(t *testing.T) {
	r := schedRunner(t, true)
	plan := &faults.Plan{Seed: 0} // identity schedule: clean
	min, runs, err := Minimize(r, plan, "no-such-signature", 8)
	if err != nil {
		t.Fatal(err)
	}
	if min != nil {
		t.Fatalf("Minimize reproduced a nonexistent signature: %v", min)
	}
	if runs != 1 {
		t.Errorf("spent %d runs on a non-reproducing plan, want 1", runs)
	}
}

// TestExploreWithMinimize: the engine end-to-end — sweep, dedup, and a
// minimized replayable string on the finding.
func TestExploreWithMinimize(t *testing.T) {
	res, err := Explore(Config{
		Runner:    schedRunner(t, true),
		Schedules: 32,
		Seed:      1,
		Minimize:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1", res.Distinct())
	}
	f := res.Findings[0]
	if f.Minimized == "" {
		t.Fatal("finding has no minimized plan")
	}
	if f.MinimizeRuns == 0 || f.MinimizeRuns > 6 {
		t.Errorf("MinimizeRuns = %d, want 1..6 (two schedule clauses)", f.MinimizeRuns)
	}
	plan, err := faults.Parse(f.Minimized)
	if err != nil {
		t.Fatalf("minimized string %q does not parse: %v", f.Minimized, err)
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
		t.Errorf("minimized plan %q does not reproduce %s", f.Minimized, f.Signature)
	}
}
