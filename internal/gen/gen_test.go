package gen

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// run executes a program under the profiler and returns the trace set.
func run(t *testing.T, pr *Program) *trace.Set {
	t.Helper()
	sink := trace.NewMemorySink()
	hook := profiler.New(sink, nil)
	if err := mpi.Run(pr.Ranks, mpi.Options{Hook: hook}, pr.Body()); err != nil {
		t.Fatalf("run failed for %s: %v", pr, err)
	}
	return sink.Set()
}

func analyze(t *testing.T, pr *Program) *core.Report {
	t.Helper()
	rep, err := core.Analyze(run(t, pr))
	if err != nil {
		t.Fatalf("analysis failed for %s: %v", pr, err)
	}
	return rep
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		a := Generate(seed, Options{})
		b := Generate(seed, Options{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1, Options{}), Generate(2, Options{})) {
		t.Fatal("distinct seeds produced identical programs")
	}
}

func TestGenerateStructuralGuarantees(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		pr := Generate(seed, Options{})
		if err := pr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen := map[PhaseKind]bool{}
		for pi, ph := range pr.Phases {
			seen[ph.Kind] = true
			var put, get bool
			slots := map[[2]int]bool{}
			for _, op := range ph.Ops {
				if op.Kind == OpPut && !op.Strided {
					put = true
				}
				if op.Kind == OpGet && !op.Strided {
					get = true
				}
				key := [2]int{op.Origin, op.Slot}
				if slots[key] {
					t.Errorf("seed %d phase %d: slot reuse by origin %d slot %d", seed, pi, op.Origin, op.Slot)
				}
				slots[key] = true
				if _, ok := pr.freeSlot(pi, op.Origin); !ok {
					t.Errorf("seed %d phase %d: origin %d has no free slot", seed, pi, op.Origin)
				}
			}
			if !put || !get {
				t.Errorf("seed %d phase %d (%s): missing forced Put/Get (put=%v get=%v)", seed, pi, ph.Kind, put, get)
			}
			if ph.Kind == PhaseLockAll && !ph.FlushAll {
				t.Errorf("seed %d phase %d: clean lock-all without flush-all", seed, pi)
			}
		}
		for _, k := range []PhaseKind{PhaseFence, PhaseLock, PhaseLockAll, PhasePSCW} {
			if !seen[k] {
				t.Errorf("seed %d: no %s phase", seed, k)
			}
		}
	}
}

func TestCleanProgramsAnalyzeClean(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		pr := Generate(seed, Options{Ranks: 2 + int(seed%3)})
		rep := analyze(t, pr)
		if len(rep.Violations) != 0 {
			t.Errorf("seed %d: clean program flagged:\n%s\n%s", seed, pr, rep)
		}
	}
}

func TestEveryPatternDetected(t *testing.T) {
	for _, p := range Patterns() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(0); seed < 5; seed++ {
				base := Generate(seed, Options{})
				pr, err := Inject(base, p.Name, seed+100)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := pr.Validate(); err != nil {
					t.Fatalf("seed %d: injected program invalid: %v\n%s", seed, err, pr)
				}
				rep := analyze(t, pr)
				if len(rep.Errors()) == 0 {
					t.Fatalf("seed %d: injected %s not detected:\n%s\n%s", seed, p.Name, pr, rep)
				}
				want := core.WithinEpoch
				if p.Across {
					want = core.AcrossProcesses
				}
				found := false
				for _, v := range rep.Errors() {
					if v.Class == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("seed %d: %s detected but no %v violation:\n%s\n%s", seed, p.Name, want, pr, rep)
				}
			}
		})
	}
}

func TestInjectDeterministic(t *testing.T) {
	base := Generate(7, Options{})
	for _, p := range Patterns() {
		a, err := Inject(base, p.Name, 42)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b, err := Inject(base, p.Name, 42)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: injection not deterministic", p.Name)
		}
	}
}

func TestInjectDoesNotMutateBase(t *testing.T) {
	base := Generate(11, Options{})
	want := Generate(11, Options{})
	for _, p := range Patterns() {
		if _, err := Inject(base, p.Name, 1); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if !reflect.DeepEqual(base, want) {
		t.Fatal("Inject mutated its base program")
	}
}

func TestInjectUnknownPattern(t *testing.T) {
	if _, err := Inject(Generate(1, Options{}), "no-such-pattern", 0); err == nil {
		t.Fatal("expected error for unknown pattern")
	}
}

func TestTraceRoundTripsCodecV2(t *testing.T) {
	pr := Generate(3, Options{})
	set := run(t, pr)
	for r, tr := range set.Traces {
		buf, err := trace.EncodeTrace(tr)
		if err != nil {
			t.Fatalf("rank %d: encode: %v", r, err)
		}
		got, err := trace.ReadTrace(buf)
		if err != nil {
			t.Fatalf("rank %d: decode: %v", r, err)
		}
		if len(got.Events) != len(tr.Events) {
			t.Fatalf("rank %d: decoded %d events, want %d", r, len(got.Events), len(tr.Events))
		}
	}
}
