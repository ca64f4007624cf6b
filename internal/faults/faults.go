// Package faults defines deterministic, seeded fault and schedule plans
// for the MC-Checker pipeline. A Plan is parsed from a compact DSL
// ("seed=7,crash=1@120,trunc=0.5,reorder,yield=20,delay=0@3") and
// consumed by the simulator (rank crashes, scheduler yields, RMA
// completion scheduling), the trace layer (byte truncation), and the CLI
// (soak and explore modes). Everything is derived from the plan's seed
// through a splitmix64 generator, so the same plan produces the same
// faults — and therefore the same report — on every run.
//
// Beyond failure injection, a Plan doubles as a deterministic *schedule*
// over the space of legal RMA completion orders: reorder (a seeded
// permutation of each batch's origins) and delay (one origin moved to the
// back of one batch) pick one legal completion order per batch, and yield
// perturbs the goroutine interleaving around them. internal/explore
// sweeps reorder seeds, after delay plans when static hints are given,
// and shrinks violating plans back to a minimal, replayable clause set
// (ScheduleAtoms / WithScheduleAtoms).
//
// The package is dependency-free (standard library only) so that every
// layer of the pipeline can import it without coupling.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Crash stops one rank at its Nth MPI call (1-based), before the call
// takes effect or is traced.
type Crash struct {
	Rank int
	Call int
}

// Trunc truncates the encoded trace of one rank (or every rank when
// Rank < 0) to the leading Frac of its bytes.
type Trunc struct {
	Rank int // -1 = all ranks
	Frac float64
}

// Delay defers one origin rank's operations to the back of one RMA
// completion batch; the explorer's hinted schedules are made of them.
type Delay struct {
	Origin int // world rank whose operations are delayed
	Batch  int // 0-based per-window completion-batch ordinal
}

// Plan is one deterministic fault plan. The zero value injects nothing.
type Plan struct {
	Seed    uint64
	Crashes []Crash
	Truncs  []Trunc
	Reorder bool    // legal cross-origin reordering of RMA completion batches
	Yield   int     // percent chance of a scheduler yield per MPI call
	Delays  []Delay // origins moved to the back of one completion batch each
}

// Parse decodes the fault DSL: comma-separated clauses of
//
//	seed=N          PRNG seed (default 1)
//	crash=R@N       rank R crashes at its Nth MPI call
//	trunc=F         truncate every rank's trace to fraction F of its bytes
//	trunc=F@R       truncate only rank R's trace
//	reorder         legally reorder RMA completion batches across origins
//	yield=P         P percent chance of a scheduler yield per MPI call
//	delay=R@K       delay rank R's operations to the back of batch K
//
// An empty string yields a nil plan (no faults).
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := p.applyClause(clause); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// applyClause folds one DSL clause into the plan.
func (p *Plan) applyClause(clause string) error {
	key, val, hasVal := strings.Cut(clause, "=")
	switch key {
	case "seed":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || !hasVal {
			return fmt.Errorf("faults: bad seed clause %q", clause)
		}
		p.Seed = n
	case "crash":
		rankStr, callStr, ok := strings.Cut(val, "@")
		if !ok || !hasVal {
			return fmt.Errorf("faults: bad crash clause %q (want crash=RANK@CALL)", clause)
		}
		rank, err1 := strconv.Atoi(rankStr)
		call, err2 := strconv.Atoi(callStr)
		if err1 != nil || err2 != nil || rank < 0 || call < 1 {
			return fmt.Errorf("faults: bad crash clause %q (want crash=RANK@CALL, CALL >= 1)", clause)
		}
		p.Crashes = append(p.Crashes, Crash{Rank: rank, Call: call})
	case "trunc":
		fracStr, rankStr, hasRank := strings.Cut(val, "@")
		frac, err := strconv.ParseFloat(fracStr, 64)
		// Written so that NaN, which fails every comparison, is rejected.
		if err != nil || !hasVal || !(frac >= 0 && frac <= 1) {
			return fmt.Errorf("faults: bad trunc clause %q (want trunc=FRAC[@RANK], 0 <= FRAC <= 1)", clause)
		}
		rank := -1
		if hasRank {
			rank, err = strconv.Atoi(rankStr)
			if err != nil || rank < 0 {
				return fmt.Errorf("faults: bad trunc clause %q", clause)
			}
		}
		p.Truncs = append(p.Truncs, Trunc{Rank: rank, Frac: frac})
	case "reorder":
		if hasVal {
			return fmt.Errorf("faults: reorder takes no value (got %q)", clause)
		}
		p.Reorder = true
	case "yield":
		n, err := strconv.Atoi(val)
		if err != nil || !hasVal || n < 0 || n > 100 {
			return fmt.Errorf("faults: bad yield clause %q (want yield=PERCENT)", clause)
		}
		p.Yield = n
	case "delay":
		rankStr, batchStr, ok := strings.Cut(val, "@")
		if !ok || !hasVal {
			return fmt.Errorf("faults: bad delay clause %q (want delay=RANK@BATCH)", clause)
		}
		rank, err1 := strconv.Atoi(rankStr)
		batch, err2 := strconv.Atoi(batchStr)
		if err1 != nil || err2 != nil || rank < 0 || batch < 0 {
			return fmt.Errorf("faults: bad delay clause %q (want delay=RANK@BATCH)", clause)
		}
		p.Delays = append(p.Delays, Delay{Origin: rank, Batch: batch})
	default:
		return fmt.Errorf("faults: unknown clause %q", clause)
	}
	return nil
}

// String renders the plan in canonical DSL form, round-trippable through
// Parse.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	crashes := append([]Crash(nil), p.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Rank != crashes[j].Rank {
			return crashes[i].Rank < crashes[j].Rank
		}
		return crashes[i].Call < crashes[j].Call
	})
	for _, c := range crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", c.Rank, c.Call))
	}
	for _, t := range p.Truncs {
		if t.Rank < 0 {
			parts = append(parts, fmt.Sprintf("trunc=%g", t.Frac))
		} else {
			parts = append(parts, fmt.Sprintf("trunc=%g@%d", t.Frac, t.Rank))
		}
	}
	parts = append(parts, p.ScheduleAtoms()...)
	return strings.Join(parts, ",")
}

// ScheduleAtoms returns the plan's schedule clauses in canonical DSL form,
// one independently removable atom per entry — the unit the ddmin schedule
// minimizer (internal/explore) adds and removes. Crashes and truncations
// are structural faults, not schedule atoms.
func (p *Plan) ScheduleAtoms() []string {
	if p == nil {
		return nil
	}
	var atoms []string
	if p.Reorder {
		atoms = append(atoms, "reorder")
	}
	if p.Yield > 0 {
		atoms = append(atoms, fmt.Sprintf("yield=%d", p.Yield))
	}
	for _, d := range p.Delays {
		atoms = append(atoms, fmt.Sprintf("delay=%d@%d", d.Origin, d.Batch))
	}
	return atoms
}

// WithScheduleAtoms returns a copy of the plan whose schedule clauses are
// replaced by exactly the given atoms (as produced by ScheduleAtoms),
// keeping the seed and the structural faults. It is how the minimizer
// tests whether a subset of schedule decisions still reproduces a
// violation.
func (p *Plan) WithScheduleAtoms(atoms []string) (*Plan, error) {
	q := &Plan{}
	if p != nil {
		q.Seed = p.Seed
		q.Crashes = append([]Crash(nil), p.Crashes...)
		q.Truncs = append([]Trunc(nil), p.Truncs...)
	}
	for _, a := range atoms {
		if err := q.applyClause(a); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// CheckRanks reports an error when a clause names a rank outside a world
// of n ranks. Such a clause would inject nothing, so a run meant to test
// a fault would silently test none.
func (p *Plan) CheckRanks(n int) error {
	if p == nil {
		return nil
	}
	var ranks []int
	for _, c := range p.Crashes {
		ranks = append(ranks, c.Rank)
	}
	for _, t := range p.Truncs {
		if t.Rank >= 0 { // a negative rank truncates every rank
			ranks = append(ranks, t.Rank)
		}
	}
	for _, d := range p.Delays {
		ranks = append(ranks, d.Origin)
	}
	for _, r := range ranks {
		if r < 0 || r >= n {
			return fmt.Errorf("faults: plan %q names rank %d, outside the %d-rank world", p, r, n)
		}
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	return p != nil && (len(p.Crashes) > 0 || len(p.Truncs) > 0 || p.Reorder || p.Yield > 0 ||
		len(p.Delays) > 0)
}

// HasCrash reports whether any rank crash is planned.
func (p *Plan) HasCrash() bool { return p != nil && len(p.Crashes) > 0 }

// CrashAt returns the 1-based MPI call ordinal at which rank crashes, or
// (0, false) when the rank survives. With several clauses for one rank
// the earliest call wins.
func (p *Plan) CrashAt(rank int) (int, bool) {
	if p == nil {
		return 0, false
	}
	call := 0
	for _, c := range p.Crashes {
		if c.Rank == rank && (call == 0 || c.Call < call) {
			call = c.Call
		}
	}
	return call, call > 0
}

// TruncFor returns the byte fraction to keep of rank's trace, or
// (1, false) when the trace is untouched. Rank-specific clauses override
// all-rank clauses; among equally specific clauses the smallest fraction
// wins.
func (p *Plan) TruncFor(rank int) (float64, bool) {
	if p == nil {
		return 1, false
	}
	frac, specific, found := 1.0, false, false
	for _, t := range p.Truncs {
		switch {
		case t.Rank == rank && (!specific || t.Frac < frac):
			frac, specific, found = t.Frac, true, true
		case t.Rank < 0 && !specific && (!found || t.Frac < frac):
			frac, found = t.Frac, true
		}
	}
	return frac, found
}

// TruncateBytes cuts data to the leading frac of its length, simulating a
// trace file that stopped being written mid-stream.
func TruncateBytes(data []byte, frac float64) []byte {
	if frac >= 1 {
		return data
	}
	if frac <= 0 {
		return data[:0]
	}
	return data[:int(float64(len(data))*frac)]
}

// WithSeed returns a copy of the plan with a different seed, for soak
// iterations that vary the perturbation schedule while keeping the
// structural faults (crashes, truncations) fixed.
func (p *Plan) WithSeed(seed uint64) *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Seed = seed
	return &q
}

// RNG is a splitmix64 generator: tiny, fast, and stable across releases
// (unlike math/rand, whose stream is not part of any compatibility
// promise). Fault injection must reproduce bit-for-bit from a seed.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Derive returns an independent generator keyed by the seed and the given
// labels — one stream per (rank, window, batch, ...) without any shared,
// order-dependent state.
func Derive(seed uint64, keys ...uint64) *RNG {
	r := &RNG{state: seed}
	for _, k := range keys {
		r.state ^= mix(k + 0x9e3779b97f4a7c15)
		r.Uint64()
	}
	return r
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}
