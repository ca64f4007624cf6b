package stream

import (
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// runBoth executes a program under both the streaming checker and the
// batch pipeline and returns the two reports.
func runBoth(t *testing.T, ranks int, body func(p *mpi.Proc) error) (streamRep, batchRep *core.Report, slabs int) {
	t.Helper()
	// Streaming run.
	sc := New(ranks, nil)
	pr := profiler.New(sc, nil)
	if err := mpi.Run(ranks, mpi.Options{Hook: pr}, body); err != nil {
		t.Fatal(err)
	}
	var err error
	streamRep, err = sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Batch run.
	sink := trace.NewMemorySink()
	pr2 := profiler.New(sink, nil)
	if err := mpi.Run(ranks, mpi.Options{Hook: pr2}, body); err != nil {
		t.Fatal(err)
	}
	batchRep, err = core.Analyze(sink.Set())
	if err != nil {
		t.Fatal(err)
	}
	return streamRep, batchRep, sc.Slabs()
}

func sameViolations(t *testing.T, a, b *core.Report) {
	t.Helper()
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("stream found %d violations, batch %d:\nstream:\n%s\nbatch:\n%s",
			len(a.Violations), len(b.Violations), a, b)
	}
	seen := map[string]bool{}
	for _, v := range a.Violations {
		seen[violationKey(v)] = true
	}
	for _, v := range b.Violations {
		if !seen[violationKey(v)] {
			t.Errorf("batch violation missing from stream: %v", v)
		}
	}
}

func TestStreamMatchesBatchOnBugSuite(t *testing.T) {
	for _, bc := range apps.BugCases() {
		bc := bc
		ranks := bc.Ranks
		if ranks > 8 {
			ranks = 8
		}
		t.Run(bc.Name, func(t *testing.T) {
			s, b, _ := runBoth(t, ranks, bc.Buggy)
			sameViolations(t, s, b)
			if len(s.Errors()) == 0 {
				t.Error("stream missed the bug")
			}
			sf, bf, _ := runBoth(t, ranks, bc.Fixed)
			sameViolations(t, sf, bf)
			if len(sf.Violations) != 0 {
				t.Errorf("stream flagged the fixed variant:\n%s", sf)
			}
		})
	}
}

func TestStreamAnalyzesIncrementally(t *testing.T) {
	// A barrier-heavy clean program must produce multiple slabs, not one
	// big batch at Finish.
	_, _, slabs := runBoth(t, 4, func(p *mpi.Proc) error {
		buf := p.Alloc(64, "win")
		w := p.WinCreate(buf, 1, p.CommWorld())
		for i := 0; i < 6; i++ {
			w.Fence(mpi.AssertNone)
			if p.Rank() == 0 {
				src := p.Alloc(8, "src")
				w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			}
			w.Fence(mpi.AssertNone)
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	})
	if slabs < 3 {
		t.Errorf("slabs = %d; expected incremental analysis", slabs)
	}
}

func TestStreamCallbackFiresEarly(t *testing.T) {
	var fired atomic.Int32
	sc := New(2, func(v *core.Violation) { fired.Add(1) })
	pr := profiler.New(sc, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		buf := p.Alloc(64, "win")
		w := p.WinCreate(buf, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			src.SetInt64(0, 1) // bug
		}
		w.Fence(mpi.AssertNone)
		p.Barrier(p.CommWorld())
		// Plenty of clean work after the bug, in later slabs.
		for i := 0; i < 3; i++ {
			p.Barrier(p.CommWorld())
		}
		firedMid := fired.Load()
		if p.Rank() == 0 && firedMid == 0 {
			// Note: cannot t.Error inside the rank body reliably; checked
			// after the run below too. This read documents intent.
			_ = firedMid
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired.Load() == 0 {
		t.Error("callback never fired")
	}
	rep, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors()) != 1 {
		t.Errorf("errors = %d:\n%s", len(rep.Errors()), rep)
	}
}

func TestStreamCoalescesUncleanBoundaries(t *testing.T) {
	// A lock epoch spanning a barrier makes the boundary unclean; the
	// conflict across it must still be found (coalesced slab).
	s, b, _ := runBoth(t, 2, func(p *mpi.Proc) error {
		buf := p.Alloc(64, "win")
		w := p.WinCreate(buf, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Lock(mpi.LockShared, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			// Epoch stays open across this rank's barrier entry.
			p.Barrier(p.CommWorld())
			w.Unlock(1)
		} else {
			buf.SetInt64(0, 9) // conflicts with the in-flight Put
			p.Barrier(p.CommWorld())
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	sameViolations(t, s, b)
	if len(s.Errors()) == 0 {
		t.Error("conflict across unclean boundary missed")
	}
}

func TestStreamPendingMessagesCoalesce(t *testing.T) {
	// A message sent before a barrier and received after it: boundary
	// unclean, slabs coalesce, matching stays intact.
	s, b, _ := runBoth(t, 2, func(p *mpi.Proc) error {
		buf := p.Alloc(8, "b")
		if p.Rank() == 0 {
			p.Send(p.CommWorld(), buf, 0, 1, mpi.Int64, 1, 3)
		}
		p.Barrier(p.CommWorld())
		if p.Rank() == 1 {
			p.Recv(p.CommWorld(), buf, 0, 1, mpi.Int64, 0, 3)
		}
		p.Barrier(p.CommWorld())
		return nil
	})
	sameViolations(t, s, b)
}

func TestStreamMemoryDropsAnalyzedSlabs(t *testing.T) {
	sc := New(2, nil)
	pr := profiler.New(sc, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		for i := 0; i < 50; i++ {
			p.Barrier(p.CommWorld())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	pending := len(sc.pending[0]) + len(sc.pending[1])
	sc.mu.Unlock()
	if pending > 4 {
		t.Errorf("pending events = %d; analyzed slabs were not discarded", pending)
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamWorkloadsClean(t *testing.T) {
	for _, wl := range apps.Workloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			sc := New(4, nil)
			pr := profiler.New(sc, profiler.FromNames(wl.RelevantBuffers))
			if err := mpi.Run(4, mpi.Options{Hook: pr}, wl.Body(0.25)); err != nil {
				t.Fatal(err)
			}
			rep, err := sc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("stream false positive on %s:\n%s", wl.Name, rep)
			}
		})
	}
}

func TestStreamSubCommWindow(t *testing.T) {
	// A window on a sub-communicator stays live across world barriers; the
	// synthetic carryover fence must be injected only by member ranks.
	s, b, slabs := runBoth(t, 4, func(p *mpi.Proc) error {
		sub := p.CommSplit(p.CommWorld(), p.Rank()%2, p.Rank())
		buf := p.Alloc(64, "subwin")
		w := p.WinCreate(buf, 1, sub)
		w.Fence(mpi.AssertNone)
		p.Barrier(p.CommWorld()) // clean world boundary with the sub window live
		w.Fence(mpi.AssertNone)
		if sub.RankOf(p) == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	sameViolations(t, s, b)
	if len(s.Violations) != 0 {
		t.Errorf("clean sub-comm window flagged:\n%s", s)
	}
	if slabs < 2 {
		t.Errorf("slabs = %d; boundary with live sub-comm window should still be clean", slabs)
	}
}

func TestStreamObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sc := New(4, nil)
	sc.SetObs(reg)
	pr := profiler.NewObs(sc, nil, reg)
	err := mpi.Run(4, mpi.Options{Hook: pr, Obs: reg}, func(p *mpi.Proc) error {
		buf := p.Alloc(64, "win")
		w := p.WinCreate(buf, 1, p.CommWorld())
		for i := 0; i < 6; i++ {
			w.Fence(mpi.AssertNone)
			if p.Rank() == 0 {
				src := p.Alloc(8, "src")
				w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			}
			w.Fence(mpi.AssertNone)
			p.Barrier(p.CommWorld())
		}
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean program flagged:\n%s", rep)
	}
	snap := reg.Snapshot()

	if got := snap.CounterValue("mcchecker_stream_slabs_total"); got != int64(sc.Slabs()) {
		t.Errorf("slabs_total = %d, want %d (sc.Slabs())", got, sc.Slabs())
	}
	clean := snap.CounterValue("mcchecker_stream_boundaries_total", "result", "clean")
	unclean := snap.CounterValue("mcchecker_stream_boundaries_total", "result", "unclean")
	if clean < 3 {
		t.Errorf("clean boundaries = %d, want >= 3 (barrier-heavy program)", clean)
	}
	if unclean != 0 {
		t.Errorf("unclean boundaries = %d on a fence-synchronized program", unclean)
	}
	if got := snap.GaugeValue("mcchecker_stream_peak_buffered_events"); got <= 0 {
		t.Errorf("peak_buffered_events = %d, want > 0", got)
	}
	// The slab-size histogram saw one observation per slab, and the total
	// events distributed over slabs equal the analyzer's event count.
	var hist *obs.HistogramValue
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "mcchecker_stream_slab_events" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil {
		t.Fatal("slab_events histogram missing")
	}
	if hist.Count != int64(sc.Slabs()) {
		t.Errorf("slab_events count = %d, want %d", hist.Count, sc.Slabs())
	}
	if hist.Sum != int64(rep.EventsAnalyzed) {
		t.Errorf("slab_events sum = %d, want %d (events analyzed)", hist.Sum, rep.EventsAnalyzed)
	}
	// The streaming checker runs the analyzer per slab, so phase spans
	// accumulate across slabs.
	if sp := snap.Span(obs.PhaseSpanName, "phase", "match"); sp.Count != int64(sc.Slabs()) {
		t.Errorf("match span count = %d, want %d", sp.Count, sc.Slabs())
	}
}

func TestStreamObsCountsCoalescedBoundaries(t *testing.T) {
	reg := obs.NewRegistry()
	sc := New(2, nil)
	sc.SetObs(reg)
	pr := profiler.NewObs(sc, nil, reg)
	err := mpi.Run(2, mpi.Options{Hook: pr, Obs: reg}, func(p *mpi.Proc) error {
		buf := p.Alloc(64, "win")
		w := p.WinCreate(buf, 1, p.CommWorld())
		p.Barrier(p.CommWorld())
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Lock(mpi.LockShared, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
			p.Barrier(p.CommWorld()) // epoch open across the barrier: unclean
			w.Unlock(1)
		} else {
			p.Barrier(p.CommWorld())
		}
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	unclean := snap.CounterValue("mcchecker_stream_boundaries_total", "result", "unclean")
	coalesced := snap.CounterValue("mcchecker_stream_coalesced_regions_total")
	if unclean == 0 {
		t.Error("open lock epoch across a barrier must count an unclean boundary")
	}
	if coalesced != unclean {
		t.Errorf("coalesced = %d, unclean = %d; every unclean boundary coalesces", coalesced, unclean)
	}
}

func TestStreamRankOutOfRange(t *testing.T) {
	sc := New(2, nil)
	sc.Emit(trace.Event{Kind: trace.KindBarrier, Rank: 5})
	if _, err := sc.Finish(); err == nil {
		t.Error("expected rank-out-of-range error")
	}
}
