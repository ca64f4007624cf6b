package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// fenceConflictSet builds a small two-rank set with a fence epoch so the
// full pipeline (model, match, dag, epochs, detectors) has work to do.
func fenceConflictSet() *trace.Set {
	b := testutil.NewTraceBuilder(2)
	b.WinCreate(1, 0x1000, 64)
	b.Fence(1)
	b.Add(0, trace.Event{
		Kind: trace.KindPut, Win: 1, Target: 1,
		OriginAddr: 0x2000, OriginType: trace.TypeInt32, OriginCount: 8,
		TargetDisp: 0, TargetType: trace.TypeInt32, TargetCount: 8,
	})
	b.Fence(1)
	b.Barrier()
	return b.Set()
}

func TestAnalyzeCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	_, err := AnalyzeWith(fenceConflictSet(), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeWith under canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeNilContextRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.Ctx = nil
	if _, err := AnalyzeWith(fenceConflictSet(), opts); err != nil {
		t.Fatalf("AnalyzeWith with nil ctx: %v", err)
	}
	// A live (uncanceled) context must be equally transparent.
	opts.Ctx = context.Background()
	if _, err := AnalyzeWith(fenceConflictSet(), opts); err != nil {
		t.Fatalf("AnalyzeWith with background ctx: %v", err)
	}
}

// countdownCtx is a context whose Err reports nil for its first n calls
// and context.Canceled from then on; calls counts every Err call.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// lockoptsLike repeats a racy lock/put pattern across many barrier-split
// regions.
func lockoptsLike() func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		win := p.Alloc(64, "win")
		w := p.WinCreate(win, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		for i := 0; i < 6; i++ {
			if p.Rank() != 0 {
				src := p.Alloc(8, "src")
				w.Lock(mpi.LockShared, 0)
				w.Put(src, 0, 1, mpi.Int64, 0, 0, 1, mpi.Int64)
				w.Unlock(0)
			} else {
				win.SetInt64(0, int64(i))
			}
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	}
}

// TestAnalyzeCanceledAtEveryCheck cancels the analysis at each of its
// context checks in turn: before each of the six phases, and before each
// epoch and region the detectors walk. Every such run must fail with
// context.Canceled and return no report; a context that outlasts every
// check must give the uncanceled report.
func TestAnalyzeCanceledAtEveryCheck(t *testing.T) {
	sink := trace.NewMemorySink()
	if err := mpi.Run(8, mpi.Options{Hook: profiler.New(sink, nil)}, lockoptsLike()); err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	want, err := AnalyzeWith(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Errors()) == 0 {
		t.Fatal("scenario should contain errors")
	}

	run := func(n int) (*Report, int, error) {
		ctx := &countdownCtx{Context: context.Background(), n: n}
		opts := DefaultOptions()
		opts.Ctx = ctx
		rep, err := AnalyzeWith(set, opts)
		return rep, ctx.calls, err
	}
	_, checks, err := run(math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if scopes := 6 + want.EpochsChecked + want.Regions; checks != scopes {
		t.Fatalf("uncanceled run made %d context checks, want %d (6 phases, %d epochs, %d regions)",
			checks, scopes, want.EpochsChecked, want.Regions)
	}
	for k := 0; k < checks; k++ {
		rep, _, err := run(k)
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Fatalf("canceled at check %d of %d: report %v, err = %v; want no report and context.Canceled",
				k+1, checks, rep != nil, err)
		}
	}
	rep, _, err := run(checks)
	if err != nil {
		t.Fatalf("context outlasting all %d checks: %v", checks, err)
	}
	if got := rep.String(); got != want.String() {
		t.Errorf("report diverged from the uncanceled run:\n%s\nvs\n%s", got, want)
	}
}

func TestAnalyzeDegradedDoesNotSalvageCanceled(t *testing.T) {
	// AnalyzeDegraded retries salvage cuts on strict failure; a canceled
	// context must short-circuit that loop and report the cancellation,
	// not return an empty "salvaged" report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Ctx = ctx
	_, err := AnalyzeDegraded(fenceConflictSet(), opts, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeDegraded under canceled ctx: err = %v, want context.Canceled", err)
	}
}
