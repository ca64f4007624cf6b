package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/profiler"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// plantedBody puts a within-epoch violation into the first fence epoch
// (rank 0 stores into the origin buffer of a pending Put) and then runs
// several more uneventful epochs — the part a truncation fault cuts away.
func plantedBody(p *mpi.Proc) error {
	win := p.Alloc(64, "win")
	w := p.WinCreate(win, 1, p.CommWorld())
	w.Fence(mpi.AssertNone)
	if p.Rank() == 0 {
		src := p.Alloc(8, "src")
		w.Put(src, 0, 1, mpi.Float64, 1, 0, 1, mpi.Float64)
		src.SetFloat64(0, 2) // BUG: store to the origin buffer of the pending Put
	}
	w.Fence(mpi.AssertNone)
	for i := 0; i < 6; i++ {
		w.Fence(mpi.AssertNone)
	}
	w.Free()
	return nil
}

func collectPlanted(t *testing.T) *trace.Set {
	t.Helper()
	sink := trace.NewMemorySink()
	pr := profiler.New(sink, nil)
	if err := mpi.Run(2, mpi.Options{Hook: pr}, plantedBody); err != nil {
		t.Fatal(err)
	}
	return sink.Set()
}

// A violation planted before the truncation point must survive into the
// degraded report, and the report must say what was lost.
func TestDegradedReportKeepsViolationBeforeTruncation(t *testing.T) {
	set := collectPlanted(t)
	plan := &faults.Plan{Seed: 1, Truncs: []faults.Trunc{{Rank: 1, Frac: 0.5}}}
	cut, notes, err := trace.ApplyTruncFaults(set, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 {
		t.Fatalf("want one truncation note, got %v", notes)
	}
	rep, err := AnalyzeDegraded(cut, DefaultOptions(), notes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) == 0 {
		t.Fatal("report does not admit its degradation")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v.Rule, "origin buffer of a pending") {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted violation lost; report:\n%s", rep)
	}
}

// A complete set through AnalyzeDegraded must match strict analysis
// exactly, with no degradation recorded.
func TestAnalyzeDegradedCleanPassThrough(t *testing.T) {
	set := collectPlanted(t)
	strict, err := AnalyzeWith(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeDegraded(set, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) != 0 {
		t.Fatalf("clean inputs marked degraded: %v", rep.Degraded)
	}
	if len(rep.Violations) != len(strict.Violations) || rep.EventsAnalyzed != strict.EventsAnalyzed {
		t.Fatalf("degraded path diverged from strict: %d/%d violations, %d/%d events",
			len(rep.Violations), len(strict.Violations), rep.EventsAnalyzed, strict.EventsAnalyzed)
	}
}

// When no prefix analyzes at all, AnalyzeDegraded reports emptiness with
// diagnostics instead of failing.
func TestAnalyzeDegradedEmptyFallback(t *testing.T) {
	set := trace.NewSet(2)
	set.Traces[0].Events = []trace.Event{
		{Kind: trace.KindBarrier, Rank: 0, Seq: 0, File: "x.go", Line: 1},
	}
	if _, err := AnalyzeWith(set, DefaultOptions()); err == nil {
		t.Skip("half-open barrier unexpectedly analyzable; fallback untestable this way")
	}
	rep, err := AnalyzeDegraded(set, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventsAnalyzed != 0 || len(rep.Violations) != 0 {
		t.Fatalf("empty fallback analyzed something: %s", rep)
	}
	joined := strings.Join(rep.Degraded, "\n")
	if !strings.Contains(joined, "salvage") {
		t.Fatalf("fallback notes missing salvage diagnostics: %v", rep.Degraded)
	}
}

// The degraded report quotes the strict run's matching error, so it must
// name the same unmatched channel on every run: rank 0 sends to ranks 1
// and 2, and neither receive was traced.
func TestAnalyzeDegradedUnmatchedIsDeterministic(t *testing.T) {
	b := testutil.NewTraceBuilder(3)
	b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 1, Tag: 0, File: "app.go", Line: 1})
	b.Add(0, trace.Event{Kind: trace.KindSend, Comm: 0, Peer: 2, Tag: 0, File: "app.go", Line: 2})
	set := b.Set()
	var first string
	for i := 0; i < 200; i++ {
		rep, err := AnalyzeDegraded(set, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(rep.Degraded, "\n")
		if i == 0 {
			first = got
			if !strings.Contains(got, "to rank 1") {
				t.Fatalf("degraded notes name the wrong channel:\n%s", got)
			}
		} else if got != first {
			t.Fatalf("run %d degraded notes differ:\n%s\nfirst run:\n%s", i, got, first)
		}
	}
}
