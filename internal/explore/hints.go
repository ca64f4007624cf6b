package explore

// hints.go: the schedules an exploration runs. Schedule i is the seed
// sweep's plan, legal cross-origin completion reordering under seed
// base+i. Static-checker findings can seed the sweep: a static diagnostic
// names the target ranks of the operations it suspects (internal/stanalyzer
// Diagnostic.Ranks), and delaying exactly those origins' completions is the
// most direct way to flip the completion orders the diagnostic worries
// about, so the hinted schedules run before the sweep.

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/stanalyzer"
)

// hintedBatches is the number of early completion batches a hinted
// schedule delays a hinted origin rank at: batch ordinals 0 to 3.
const hintedBatches = 4

// schedulePlan builds schedule i of an exploration with the given base
// seed, static hints and rank count. With hints, the first
// len(hints)×hintedBatches schedules each delay one hinted origin rank at
// one early completion batch (with reordering on, so the rest of the
// batch still shuffles), and the sweep then continues from its own
// schedule 0. A plan is a pure function of its arguments, so a sweep is
// reproducible and any single schedule replays from its `-faults` string.
func schedulePlan(i int, base uint64, hints []int, ranks int) *faults.Plan {
	hinted := len(hints) * hintedBatches
	if i >= hinted {
		return &faults.Plan{Seed: base + uint64(i-hinted), Reorder: true}
	}
	plan := &faults.Plan{Seed: base + uint64(i), Reorder: true}
	// A hint outside this world's rank range degrades to the plain sweep.
	if r := hints[i%len(hints)]; r >= 0 && r < ranks {
		plan.Delays = []faults.Delay{{Origin: r, Batch: i / len(hints)}}
	}
	return plan
}

// StrategyName names the schedules an exploration with the given static
// hints runs, as progress lines and results report it: "sweep", or
// "sweep+static-hints" when there are hints.
func StrategyName(hints []int) string {
	if len(hints) > 0 {
		return "sweep+static-hints"
	}
	return "sweep"
}

// HintsFromDiagnostics collects the statically-known target ranks named by
// the diagnostics, deduplicated and sorted — the Config.Hints input.
func HintsFromDiagnostics(diags []stanalyzer.Diagnostic) []int {
	seen := map[int]bool{}
	var out []int
	for i := range diags {
		for _, r := range diags[i].Ranks {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}
