package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/trace"
)

func mustPlan(t *testing.T, dsl string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// An injected crash kills only its rank; a survivor blocked on the dead
// rank receives a RankFailure instead of hanging or aborting.
func TestFaultTolerantCrashDeliversRankFailure(t *testing.T) {
	err := Run(2, Options{Faults: mustPlan(t, "crash=1@5")}, func(p *Proc) error {
		for i := 0; i < 10; i++ {
			p.Barrier(p.CommWorld())
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error from crashed run")
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 || ce.Call != 5 {
		t.Fatalf("want CrashError{Rank:1, Call:5} in %v", err)
	}
	var rf *RankFailure
	if !errors.As(err, &rf) || rf.Rank != 0 || rf.Failed != 1 || rf.Call != "Barrier" {
		t.Fatalf("want RankFailure{Rank:0, Failed:1, Call:Barrier} in %v", err)
	}
	if !Degraded(err) {
		t.Fatalf("Degraded(%v) = false, want true", err)
	}
}

// Ranks with no dependency on the dead rank run to completion.
func TestFaultTolerantIndependentRanksComplete(t *testing.T) {
	err := Run(3, Options{Faults: mustPlan(t, "crash=2@1")}, func(p *Proc) error {
		c := p.CommWorld()
		buf := p.AllocFloat64(1, "b")
		switch p.Rank() {
		case 0:
			p.Send(c, buf, 0, 1, Float64, 1, 0)
		case 1:
			p.Recv(c, buf, 0, 1, Float64, 0, 0)
		case 2:
			p.Send(c, buf, 0, 1, Float64, 0, 99) // crashes before sending
		}
		return nil
	})
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 2 {
		t.Fatalf("want CrashError for rank 2 in %v", err)
	}
	var rf *RankFailure
	if errors.As(err, &rf) {
		t.Fatalf("independent ranks must complete, got %v", err)
	}
}

// A crash mid-PSCW epoch must unwind the partner promptly: the exposed
// rank blocked in Win_wait may not ride out the deadlock watchdog.
func TestPSCWCrashUnwindsPartners(t *testing.T) {
	// Survivors tolerate the crash and report a RankFailure.
	t.Run("tolerant", func(t *testing.T) {
		// Rank 0 crashes at its 4th MPI call — Win_complete, after
		// Win_create(1), Win_start(2), Put(3) — leaving rank 1's exposure
		// epoch forever open.
		start := time.Now()
		err := Run(2, Options{
			Faults:  mustPlan(t, "crash=0@4"),
			Timeout: 30 * time.Second,
		}, func(p *Proc) error {
			buf := p.AllocFloat64(4, "buf")
			w := p.WinCreate(buf, 8, p.CommWorld())
			peer := 1 - p.Rank()
			g := NewGroup([]int{peer})
			if p.Rank() == 0 {
				w.Start(g)
				w.Put(buf, 0, 1, Float64, 1, 0, 1, Float64)
				w.Complete()
			} else {
				w.Post(g)
				w.WaitEpoch()
			}
			w.Free()
			return nil
		})
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("partners unwound only after %v", elapsed)
		}
		if err == nil || strings.Contains(err.Error(), "deadlocked") {
			t.Fatalf("want prompt crash error, got %v", err)
		}
		var ce *CrashError
		if !errors.As(err, &ce) || ce.Rank != 0 {
			t.Fatalf("want CrashError for rank 0 in %v", err)
		}
		var rf *RankFailure
		if !errors.As(err, &rf) || rf.Rank != 1 || rf.Call != "Win_wait" {
			t.Fatalf("want RankFailure{Rank:1, Call:Win_wait} in %v", err)
		}
	})
}

// The deadlock watchdog's report names each stuck rank and the call it is
// blocked in.
func TestStuckReportNamesBlockedCall(t *testing.T) {
	err := Run(2, Options{Timeout: 100 * time.Millisecond}, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Barrier(p.CommWorld()) // rank 0 never joins
		}
		return nil
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	for _, want := range []string{"deadlocked", "rank 1: blocked in Barrier"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stuck report %q missing %q", err, want)
		}
	}
}

// Degraded classifies error trees: true only for pure crash/rank-failure
// trees with at least one crash.
func TestDegradedClassifier(t *testing.T) {
	crash := &CrashError{Rank: 1, Call: 5}
	rf := &RankFailure{Rank: 0, Call: "Barrier", Failed: 1}
	other := fmt.Errorf("disk on fire")
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{crash, true},
		{rf, false}, // failure without a crash is not an injected degradation
		{other, false},
		{errors.Join(crash, rf), true},
		{errors.Join(crash, rf, rf), true},
		{errors.Join(crash, other), false},
		{errors.Join(rf, fmt.Errorf("wrapped: %w", crash)), true},
	}
	for i, c := range cases {
		if got := Degraded(c.err); got != c.want {
			t.Errorf("case %d: Degraded(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}

// Same seed, same reorder faults: the simulated memory outcome of racing
// Puts must reproduce bit-for-bit.
func TestReorderDeterminism(t *testing.T) {
	run := func(seed uint64) float64 {
		var got float64
		err := Run(3, Options{Faults: mustPlan(t, fmt.Sprintf("seed=%d,reorder", seed))}, func(p *Proc) error {
			buf := p.AllocFloat64(1, "cell")
			buf.SetFloat64(0, float64(p.Rank()))
			w := p.WinCreate(buf, 8, p.CommWorld())
			w.Fence(AssertNone)
			if p.Rank() != 0 {
				// Both non-root ranks race a Put into rank 0's cell; the
				// reorder fault permutes which lands last.
				w.Put(buf, 0, 1, Float64, 0, 0, 1, Float64)
			}
			w.Fence(AssertNone)
			if p.Rank() == 0 {
				got = buf.Float64At(0)
			}
			w.Fence(AssertNone)
			w.Free()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, seed := range []uint64{1, 2, 7, 99} {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: outcomes %v and %v differ", seed, a, b)
		}
	}
}

// A crashing call is neither counted nor traced: the fault fires at the
// top of emit, so the rank's last visible action precedes the crash call.
func TestCrashCallNotObserved(t *testing.T) {
	var calls [2]int
	hook := countingHook{onCall: func(rank int32) { calls[rank]++ }}
	err := Run(2, Options{Hook: hook, Faults: mustPlan(t, "crash=1@3")}, func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Barrier(p.CommWorld())
		}
		return nil
	})
	if !Degraded(err) {
		t.Fatalf("want degraded run, got %v", err)
	}
	if calls[1] != 2 {
		t.Fatalf("crashed rank emitted %d calls, want 2 (crash at call 3 untraced)", calls[1])
	}
}

type countingHook struct {
	onCall func(rank int32)
}

func (h countingHook) MPICall(p *Proc, ev trace.Event)           { h.onCall(ev.Rank) }
func (h countingHook) BufferAllocated(p *Proc, b *memory.Buffer) {}
