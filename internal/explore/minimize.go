package explore

import (
	"fmt"

	"repro/internal/faults"
)

// Minimize shrinks a violating schedule plan with the ddmin algorithm
// (Zeller & Hildebrandt, "Simplifying and Isolating Failure-Inducing
// Input"): the plan's schedule clauses are split into atoms
// (faults.Plan.ScheduleAtoms) and ddmin searches for a 1-minimal subset
// that still reproduces the violation signature sig. Structural clauses
// (seed, crashes, truncations) are kept verbatim — the seed is part of
// the schedule's identity, not a removable atom.
//
// It returns the minimized plan (nil if even the full plan no longer
// reproduces — a flaky finding, which deterministic schedules should
// never produce) and the number of verification runs spent, bounded by
// maxRuns. On hitting the run budget the best reduction so far is
// returned; it reproduces, it just may not be 1-minimal.
func Minimize(r *Runner, plan *faults.Plan, sig string, maxRuns int) (*faults.Plan, int, error) {
	if plan == nil {
		return nil, 0, fmt.Errorf("explore: cannot minimize a nil plan")
	}
	runs := 0
	var firstErr error
	// test reports whether the plan rebuilt from atoms still produces a
	// violation with the target signature.
	test := func(atoms []string) bool {
		if runs >= maxRuns || firstErr != nil {
			return false
		}
		runs++
		cand, err := plan.WithScheduleAtoms(atoms)
		if err != nil {
			firstErr = err
			return false
		}
		rep, err := r.Run(cand)
		if err != nil {
			firstErr = err
			return false
		}
		for _, v := range rep.Violations {
			if v.Signature() == sig {
				return true
			}
		}
		return false
	}

	atoms := plan.ScheduleAtoms()
	// The full plan must reproduce, or there is nothing to minimize.
	if !test(atoms) {
		return nil, runs, firstErr
	}
	// Fast path: no schedule clauses at all (the bug needs no schedule).
	if len(atoms) > 0 && test(nil) {
		atoms = nil
	} else {
		atoms = ddmin(atoms, test)
	}
	if firstErr != nil {
		return nil, runs, firstErr
	}
	min, err := plan.WithScheduleAtoms(atoms)
	return min, runs, err
}

// ddmin reduces atoms to a 1-minimal subset under test, which must hold
// for the input set. test is monotone-ish in practice but ddmin does not
// require it; it only requires determinism, which schedule plans give.
func ddmin(atoms []string, test func([]string) bool) []string {
	n := 2
	for len(atoms) >= 2 {
		chunks := split(atoms, n)
		reduced := false
		// Try each chunk alone: a schedule is often one load-bearing clause.
		for _, c := range chunks {
			if test(c) {
				atoms, n, reduced = c, 2, true
				break
			}
		}
		if !reduced {
			// Try each complement: drop one chunk at a time.
			for i := range chunks {
				comp := complement(chunks, i)
				if test(comp) {
					atoms, reduced = comp, true
					n--
					if n < 2 {
						n = 2
					}
					break
				}
			}
		}
		if !reduced {
			if n >= len(atoms) {
				break // 1-minimal at the finest granularity
			}
			n *= 2
			if n > len(atoms) {
				n = len(atoms)
			}
		}
	}
	return atoms
}

// split partitions atoms into n contiguous chunks of near-equal size.
func split(atoms []string, n int) [][]string {
	if n > len(atoms) {
		n = len(atoms)
	}
	chunks := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(atoms)/n, (i+1)*len(atoms)/n
		chunks = append(chunks, atoms[lo:hi])
	}
	return chunks
}

// complement concatenates every chunk except chunk i.
func complement(chunks [][]string, i int) []string {
	var out []string
	for j, c := range chunks {
		if j != i {
			out = append(out, c...)
		}
	}
	return out
}
