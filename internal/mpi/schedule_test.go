package mpi

import (
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

// runSchedProbe runs a 3-rank program in which ranks 0 and 1 race a Put to
// rank 2's window inside one fence epoch, and returns the value rank 2
// observes after the closing fence — 1 when rank 0's Put completed last,
// 2 when rank 1's did. The baseline (origin rank, issue order) completion
// order always yields 2; schedule clauses can legally flip it.
func runSchedProbe(t *testing.T, plan *faults.Plan) int32 {
	t.Helper()
	var got atomic.Int32
	err := Run(3, Options{Faults: plan}, func(p *Proc) error {
		wbuf := p.AllocInt32(1, "wbuf")
		w := p.WinCreate(wbuf, 4, p.CommWorld())
		src := p.AllocInt32(1, "src")
		src.SetInt32(0, int32(p.Rank()+1))
		w.Fence(AssertNone)
		if p.Rank() < 2 {
			w.Put(src, 0, 1, Int32, 2, 0, 1, Int32)
		}
		w.Fence(AssertNone)
		if p.Rank() == 2 {
			got.Store(wbuf.Int32At(0))
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got.Load()
}

func TestScheduleBaselineOrder(t *testing.T) {
	if v := runSchedProbe(t, nil); v != 2 {
		t.Fatalf("baseline completion order: rank 2 saw %d, want 2 (origin 1 applies last)", v)
	}
}

func TestScheduleDelayOrder(t *testing.T) {
	// Delaying origin 0 in the racing batch (ordinal 0) moves its Put to
	// the back: it wins.
	if v := runSchedProbe(t, mustPlan(t, "seed=1,delay=0@0")); v != 1 {
		t.Fatalf("delay=0@0: rank 2 saw %d, want 1", v)
	}
	// A delay addressed at a later batch does not touch the race.
	if v := runSchedProbe(t, mustPlan(t, "seed=1,delay=0@7")); v != 2 {
		t.Fatalf("delay=0@7: rank 2 saw %d, want 2", v)
	}
	// Delaying the rank that already applies last changes nothing.
	if v := runSchedProbe(t, mustPlan(t, "seed=1,delay=1@0")); v != 2 {
		t.Fatalf("delay=1@0: rank 2 saw %d, want 2", v)
	}
}

func TestScheduleReorderDeterministic(t *testing.T) {
	outcomes := map[int32]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		plan := mustPlan(t, "reorder").WithSeed(seed)
		a := runSchedProbe(t, plan)
		b := runSchedProbe(t, plan)
		if a != b {
			t.Fatalf("seed %d: reorder schedule not deterministic (%d vs %d)", seed, a, b)
		}
		outcomes[a] = true
	}
	if !outcomes[1] || !outcomes[2] {
		t.Errorf("reorder sweep over 16 seeds explored only %v, want both orders", outcomes)
	}
}
