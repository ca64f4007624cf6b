package main

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/profiler"
)

// The four workloads. Each stresses a different layer of the checker; the
// README gives the measured shares that motivated the choice.
//
//   - bugcorpus: the registry's real bug programs, many small concurrent
//     regions per trace, so per-region set-up cost in the detectors shows.
//   - fat-region: one huge concurrent region, so detector cost dominates and
//     the front end (decode, model, match, dag) is a small share.
//   - app-check: the Figure 8 applications, run under the profiler on every
//     job, the only workload where the simulator, profiler and trace writer
//     are on the job's path.
//   - gen-mix: generated programs that change with the seed, so a claim can
//     be re-checked on inputs it was not tuned on.
var workloadNames = []string{"bugcorpus", "fat-region", "app-check", "gen-mix"}

const (
	maxCaseRanks = 8 // rank cap for the bug corpus, as in the Table II harness
	amplify      = 8 // each bug program's body runs this many times per trace

	fatRanks    = 8
	fatPuts     = 4096
	fatOverlaps = 4
	fatVariants = 4

	appRanks = 16 // the paper runs Figure 8 at 64 ranks; 16 fits the time budget

	genPrograms = 64
)

// input is one program of a workload together with the verdict its trace
// must get.
type input struct {
	name  string
	ranks int
	body  func(p *mpi.Proc) error
	rel   profiler.Relevance
	dir   string // trace directory, assigned at set-up
	want  verdict
}

// verdict is the known answer for one input.
type verdict struct {
	clean bool       // the report must be empty
	class core.Class // otherwise an error of this class must be reported
	// cross is the set of cross-process violation signatures the all-pairs
	// checker reports on the input's trace; the oracle fills it.
	cross map[string]bool
}

// buildInputs returns one pass of the named workload's inputs and whether
// each job runs the program itself (true) or analyses a trace written at
// set-up (false).
func buildInputs(workload string, seed int64) ([]*input, bool, error) {
	switch workload {
	case "bugcorpus":
		return bugCorpus(), false, nil
	case "fat-region":
		return fatRegionInputs(seed), false, nil
	case "app-check":
		return appCheck(), true, nil
	case "gen-mix":
		in, err := genMix(seed)
		return in, true, err
	}
	return nil, false, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

func expectClass(acrossProcesses bool) core.Class {
	if acrossProcesses {
		return core.AcrossProcesses
	}
	return core.WithinEpoch
}

func relevance(names []string) profiler.Relevance {
	if names == nil {
		return nil
	}
	return profiler.FromNames(names)
}

// repeat runs body the given number of times per rank; every repetition
// creates fresh windows, so the trace stays a legal execution.
func repeat(body func(p *mpi.Proc) error, times int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		for i := 0; i < times; i++ {
			if err := body(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// bugCorpus is every registry bug case in its buggy and fixed variant.
// schedrace is left out: its bug shows only under schedules the default
// one does not take, by design.
func bugCorpus() []*input {
	var out []*input
	for _, bc := range apps.AllCases() {
		if bc.Name == "schedrace" {
			continue
		}
		ranks := bc.Ranks
		if ranks > maxCaseRanks {
			ranks = maxCaseRanks
		}
		rel := relevance(bc.RelevantBuffers)
		out = append(out,
			&input{name: bc.Name + "/buggy", ranks: ranks, body: repeat(bc.Buggy, amplify), rel: rel,
				want: verdict{class: expectClass(bc.ErrorLocation == "across processes")}},
			&input{name: bc.Name + "/fixed", ranks: ranks, body: repeat(bc.Fixed, amplify), rel: rel,
				want: verdict{clean: true}})
	}
	return out
}

func fatRegionInputs(seed int64) []*input {
	out := make([]*input, fatVariants)
	for v := range out {
		out[v] = &input{
			name:  fmt.Sprintf("fat-region/%d", v),
			ranks: fatRanks,
			body:  fatRegion(seed*fatVariants + int64(v)),
			want:  verdict{class: core.AcrossProcesses},
		}
	}
	return out
}

// fatRegion is one concurrent region in which every rank but 0 puts its
// own stripe of rank 0's window under a shared lock, so all fatPuts
// operations land in one (window, target) vector; it is modelled on
// experiments.ShadowSyntheticRegion, but runs on the simulator so the
// profiler and trace writer see it too. The seed permutes each origin's
// stripe order and plants fatOverlaps extra Puts into other origins'
// stripes, each a cross-process conflict.
func fatRegion(seed int64) func(p *mpi.Proc) error {
	rng := rand.New(rand.NewSource(seed))
	origins := fatRanks - 1
	per := fatPuts / origins
	order := make([][]int, fatRanks)
	for r := 1; r < fatRanks; r++ {
		order[r] = rng.Perm(per)
	}
	extra := make([][]int, fatRanks) // words an origin also puts, in another origin's stripe
	planted := map[[2]int]bool{}
	for len(planted) < fatOverlaps {
		a := 1 + rng.Intn(origins)
		b := 1 + (a+rng.Intn(origins-1))%origins // any origin but a
		word := (b-1)*per + rng.Intn(per)
		if planted[[2]int{a, word}] {
			continue
		}
		planted[[2]int{a, word}] = true
		extra[a] = append(extra[a], word)
	}
	return func(p *mpi.Proc) error {
		buf := p.AllocFloat64(origins*per, "fat")
		w := p.WinCreate(buf, 8, p.CommWorld())
		p.Barrier(p.CommWorld())
		if r := p.Rank(); r > 0 {
			src := p.AllocFloat64(1, "fatsrc")
			src.SetFloat64(0, float64(r))
			w.Lock(mpi.LockShared, 0)
			for _, k := range order[r] {
				w.Put(src, 0, 1, mpi.Float64, 0, uint64((r-1)*per+k), 1, mpi.Float64)
			}
			for _, word := range extra[r] {
				w.Put(src, 0, 1, mpi.Float64, 0, uint64(word), 1, mpi.Float64)
			}
			w.Unlock(0)
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	}
}

// appCheck is the five Figure 8 applications at scale 1. They are
// correct programs, so every report must be empty.
func appCheck() []*input {
	var out []*input
	for _, wl := range apps.Workloads() {
		out = append(out, &input{
			name: wl.Name, ranks: appRanks, body: wl.Body(1), rel: relevance(wl.RelevantBuffers),
			want: verdict{clean: true},
		})
	}
	return out
}

// genMix is genPrograms generated programs; every second one carries an
// injected bug, the patterns taken round-robin from the catalog.
func genMix(seed int64) ([]*input, error) {
	patterns := gen.Patterns()
	out := make([]*input, 0, genPrograms)
	for i := 0; i < genPrograms; i++ {
		s := uint64(seed) + uint64(i)
		pr := gen.Generate(s, gen.Options{Ranks: 8, Slots: 6, Phases: 24})
		name := fmt.Sprintf("gen/%d/clean", s)
		want := verdict{clean: true}
		if i%2 == 1 {
			p := patterns[(i/2)%len(patterns)]
			var err error
			if pr, err = gen.Inject(pr, p.Name, s); err != nil {
				return nil, err
			}
			name = fmt.Sprintf("gen/%d/%s", s, p.Name)
			want = verdict{class: expectClass(p.Across)}
		}
		out = append(out, &input{name: name, ranks: pr.Ranks, body: pr.Body(), want: want})
	}
	return out, nil
}

// check compares a report with the known answer.
func (v *verdict) check(rep *core.Report) error {
	if v.clean {
		if n := len(rep.Violations); n != 0 {
			return fmt.Errorf("want a clean report, got %d violation(s)", n)
		}
		return nil
	}
	found := false
	for _, x := range rep.Errors() {
		if x.Class == v.class {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("no %s error reported", v.class)
	}
	got := crossSignatures(rep)
	if len(got) != len(v.cross) {
		return fmt.Errorf("%d cross-process signature(s), the all-pairs oracle has %d", len(got), len(v.cross))
	}
	for s := range got {
		if !v.cross[s] {
			return fmt.Errorf("cross-process signature %q not in the all-pairs oracle", s)
		}
	}
	return nil
}

func crossSignatures(rep *core.Report) map[string]bool {
	out := map[string]bool{}
	for _, v := range rep.Violations {
		if v.Class == core.AcrossProcesses {
			out[v.Signature()] = true
		}
	}
	return out
}
