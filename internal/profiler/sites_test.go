package profiler

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/memory"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// siteCheck is an mpi.Hook that observes every tracked buffer and checks
// each access's source site against the frame runtime.Callers gives for
// the accessor's caller.
type siteCheck struct {
	mu       sync.Mutex
	accesses int
	bad      []string
}

func (*siteCheck) MPICall(*mpi.Proc, trace.Event) {}

func (sc *siteCheck) BufferAllocated(_ *mpi.Proc, b *memory.Buffer) {
	b.SetObserver(memory.ObserverFunc(func(_ *memory.Buffer, a memory.Access) {
		// Frames above runtime.Callers: this function,
		// ObserverFunc.ObserveAccess, Buffer.observe, the accessor and its
		// caller. Logical frames count inlined ones, so the depth is fixed.
		var pcs [1]uintptr
		var want runtime.Frame
		if runtime.Callers(5, pcs[:]) == 1 {
			want, _ = runtime.CallersFrames(pcs[:]).Next()
		}
		sc.mu.Lock()
		defer sc.mu.Unlock()
		sc.accesses++
		if a.File != want.File || a.Line != want.Line || a.Func != want.Function {
			if len(sc.bad) < 5 {
				sc.bad = append(sc.bad, fmt.Sprintf("access logged at %s:%d (%s), runtime.Callers gives %s:%d (%s)",
					a.File, a.Line, a.Func, want.File, want.Line, want.Function))
			}
		}
	}))
}

// TestAccessSitesMatchRuntime runs every bundled bug case (buggy and
// fixed), the five Figure 8 applications and 64 generated programs
// under a hook that checks every load and store site. Each program runs
// twice, so the second run checks sites served from the location cache.
func TestAccessSitesMatchRuntime(t *testing.T) {
	type program struct {
		name  string
		ranks int
		body  func(p *mpi.Proc) error
	}
	var progs []program
	for _, bc := range apps.AllCases() {
		progs = append(progs,
			program{bc.Name + "/buggy", min(bc.Ranks, 8), bc.Buggy},
			program{bc.Name + "/fixed", min(bc.Ranks, 8), bc.Fixed})
	}
	for _, wl := range apps.Workloads() {
		progs = append(progs, program{wl.Name, 16, wl.Body(0.5)})
	}
	patterns := gen.Patterns()
	for i := 0; i < 64; i++ {
		s := uint64(1 + i)
		pr := gen.Generate(s, gen.Options{Ranks: 8, Slots: 6, Phases: 24})
		if i%2 == 1 {
			var err error
			if pr, err = gen.Inject(pr, patterns[(i/2)%len(patterns)].Name, s); err != nil {
				t.Fatal(err)
			}
		}
		progs = append(progs, program{fmt.Sprintf("gen/%d", s), pr.Ranks, pr.Body()})
	}
	accesses := 0
	for _, pg := range progs {
		for run := 0; run < 2; run++ {
			sc := &siteCheck{}
			// Bug cases may fail by design (a planted deadlock or misuse);
			// only the logged sites matter here.
			_ = mpi.Run(pg.ranks, mpi.Options{Hook: sc}, pg.body)
			for _, b := range sc.bad {
				t.Errorf("%s, run %d: %s", pg.name, run+1, b)
			}
			accesses += sc.accesses
		}
	}
	if accesses == 0 {
		t.Fatal("no access was observed")
	}
	t.Logf("%d programs, %d accesses checked", len(progs), accesses)
}
