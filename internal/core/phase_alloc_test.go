//go:build !race

package core

import "testing"

// phaseAllocCeilings caps each phase's allocations per pass over the
// amplified corpus (30 traces, 22,696 events; their 30 reports hold 216
// violations) at 1.5× the count measured on go1.24 when the ceiling was
// set, shown beside it. One allocation per event exceeds every phase's
// headroom.
var phaseAllocCeilings = map[string]float64{
	"decode":       2319, // 1,546
	"model":        2268, // 1,512
	"match":        4681, // 3,121
	"dag":          630,  // 420
	"epochs":       1444, // 963
	"detect_intra": 1694, // 1,129 (2,569 before fold before build)
	"detect_cross": 5565, // 3,710 (8,852 before reused slots and on-demand operands)
	"render":       104,  // 69 (13,124 with the fmt renderer)
}

// TestPhaseAllocCeilings fails when a phase allocates more than its
// checked-in ceiling on one pass over the amplified corpus. Allocation
// counts are exact where times are noisy, so this is the regression gate
// CI can hold; raise a ceiling only with the change that needs it. The
// file is left out under the race detector, where sync.Pool drops a
// random share of Puts and the decode count rises with it.
func TestPhaseAllocCeilings(t *testing.T) {
	if len(phaseAllocCeilings) != len(phases) {
		t.Fatalf("%d ceilings for %d phases", len(phaseAllocCeilings), len(phases))
	}
	inputs := amplifiedCorpus(t)
	for _, p := range phases {
		ceiling, ok := phaseAllocCeilings[p.name]
		if !ok {
			t.Errorf("%s: no allocation ceiling", p.name)
			continue
		}
		var err error
		got := testing.AllocsPerRun(2, func() {
			if e := runPhase(p, inputs); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocs per pass (ceiling %.0f)", p.name, got, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.0f allocs per pass over the amplified corpus, over its ceiling of %.0f",
				p.name, got, ceiling)
		}
	}
}
