//go:build !race

package core

import "testing"

// phaseAllocCeilings caps each phase's allocations per pass over the
// amplified corpus (30 traces, 22,696 events) at 1.5× the count measured
// on go1.24 when the ceiling was set, shown beside it. One allocation per
// event exceeds every phase's headroom.
var phaseAllocCeilings = map[string]float64{
	"decode":       2613,  // 1,742
	"model":        2268,  // 1,512
	"match":        19365, // 12,910
	"dag":          28713, // 19,142
	"epochs":       11358, // 7,572
	"detect_intra": 3854,  // 2,569
	"detect_cross": 13278, // 8,852
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
