package explore

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/stanalyzer"
)

func TestHintedPlanPrefix(t *testing.T) {
	hints := []int{1, 2}
	ranks := 4
	// The first len(hints)×hintedBatches schedules are targeted delay
	// plans cycling through the hinted origins and stepping the batch
	// ordinal.
	for i := 0; i < 2*hintedBatches; i++ {
		plan := schedulePlan(i, 100, hints, ranks)
		if plan == nil || len(plan.Delays) != 1 {
			t.Fatalf("schedulePlan(%d) = %+v, want one targeted delay", i, plan)
		}
		d := plan.Delays[0]
		wantOrigin := hints[i%2]
		wantBatch := i / 2
		if d.Origin != wantOrigin || d.Batch != wantBatch {
			t.Errorf("schedulePlan(%d): delay = %+v, want origin %d batch %d", i, d, wantOrigin, wantBatch)
		}
		if !plan.Reorder {
			t.Errorf("schedulePlan(%d): hinted schedules must keep reordering on", i)
		}
		if plan.Seed != 100+uint64(i) {
			t.Errorf("schedulePlan(%d): seed = %d", i, plan.Seed)
		}
	}
	// After the hinted prefix the sweep continues from its schedule 0.
	got := schedulePlan(2*hintedBatches, 100, hints, ranks)
	want := &faults.Plan{Seed: 100, Reorder: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedulePlan(%d) = %+v, want the sweep's schedule 0 %+v", 2*hintedBatches, got, want)
	}
	// Without hints every schedule is the sweep's.
	if got := schedulePlan(5, 100, nil, ranks); !reflect.DeepEqual(got, &faults.Plan{Seed: 105, Reorder: true}) {
		t.Errorf("unhinted schedulePlan(5) = %+v, want seed=105,reorder", got)
	}
}

func TestHintedOutOfRangeRankDegrades(t *testing.T) {
	plan := schedulePlan(0, 0, []int{7}, 2) // rank 7 does not exist in a 2-rank world
	if plan == nil || len(plan.Delays) != 0 || !plan.Reorder {
		t.Errorf("out-of-range hint must degrade to plain reorder, got %+v", plan)
	}
}

func TestHintedName(t *testing.T) {
	if got := StrategyName(nil); got != "sweep" {
		t.Errorf("StrategyName(nil) = %q", got)
	}
	if got := StrategyName([]int{1}); got != "sweep+static-hints" {
		t.Errorf("StrategyName([1]) = %q", got)
	}
}

func TestHintsFromDiagnostics(t *testing.T) {
	diags := []stanalyzer.Diagnostic{
		{Ranks: []int{2, 0}},
		{Ranks: []int{0, 1}},
		{},
	}
	if got := HintsFromDiagnostics(diags); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("HintsFromDiagnostics = %v", got)
	}
	if got := HintsFromDiagnostics(nil); len(got) != 0 {
		t.Errorf("empty diags must yield no hints, got %v", got)
	}
}

// TestHintedCatchesScheduleBug: seeding the sweep with the static
// checker's rank hints for the schedrace app must still expose the
// planted schedule-dependent violation within the sweep budget.
func TestHintedCatchesScheduleBug(t *testing.T) {
	res, err := Explore(Config{
		Runner:    schedRunner(t, true),
		Hints:     schedHints(t),
		Schedules: 32,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct() != 1 {
		t.Fatalf("hinted sweep found %d distinct violations, want 1", res.Distinct())
	}
}
