package stream

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/memory"
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

// sameViolations fails unless the two reports hold the same violations,
// compared by the key core folds duplicates by, with the same counts.
func sameViolations(t *testing.T, stream, batch *core.Report) {
	t.Helper()
	counts := func(rep *core.Report) map[string]int {
		m := map[string]int{}
		for _, v := range rep.Violations {
			m[v.Key()] += v.Count
		}
		return m
	}
	if s, b := counts(stream), counts(batch); !maps.Equal(s, b) {
		t.Fatalf("stream and batch violations differ:\nstream:\n%s\nbatch:\n%s", stream, batch)
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

// TestStreamMatchesBatchOnAllCases: online analysis reports what offline
// analysis reports on every bundled program, buggy and fixed, including
// programs that define windows, datatypes or communicators after their
// first slab.
func TestStreamMatchesBatchOnAllCases(t *testing.T) {
	for _, bc := range apps.AllCases() {
		ranks := min(bc.Ranks, 8)
		for _, v := range []struct {
			name string
			body func(p *mpi.Proc) error
		}{{"buggy", bc.Buggy}, {"fixed", bc.Fixed}} {
			t.Run(bc.Name+"/"+v.name, func(t *testing.T) {
				s, b, _ := runBoth(t, ranks, v.body)
				sameViolations(t, s, b)
			})
		}
	}
}

// teeSink hands every event to each of its sinks.
type teeSink []trace.Sink

func (t teeSink) Emit(ev trace.Event) {
	for _, s := range t {
		s.Emit(ev)
	}
}

// runOnline runs body once under the streaming checker and returns its
// report together with the trace the same run emitted.
func runOnline(t *testing.T, ranks int, body func(p *mpi.Proc) error) (*core.Report, *trace.Set) {
	t.Helper()
	return runOnlineObs(t, ranks, body, nil)
}

// runOnlineObs is runOnline with the checker's metrics recorded in reg.
func runOnlineObs(t *testing.T, ranks int, body func(p *mpi.Proc) error, reg *obs.Registry) (*core.Report, *trace.Set) {
	t.Helper()
	sc := New(ranks, nil)
	sc.SetObs(reg)
	sink := trace.NewMemorySink()
	if err := mpi.Run(ranks, mpi.Options{Hook: profiler.New(teeSink{sc, sink}, nil)}, body); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rep, sink.Set()
}

// TestStreamWitnessNamesTracePositions: on every bundled program, each
// event an online violation names, its two operands and every witness
// step, is the trace event at that (rank, seq), with the same kind and
// source site.
func TestStreamWitnessNamesTracePositions(t *testing.T) {
	for _, bc := range apps.AllCases() {
		for _, v := range []struct {
			name string
			body func(p *mpi.Proc) error
		}{{"buggy", bc.Buggy}, {"fixed", bc.Fixed}} {
			t.Run(bc.Name+"/"+v.name, func(t *testing.T) {
				rep, set := runOnline(t, min(bc.Ranks, 8), v.body)
				for _, viol := range rep.Violations {
					named := []trace.Event{viol.A, viol.B}
					for _, st := range viol.Witness {
						named = append(named, st.Ev)
					}
					for _, ev := range named {
						if ev.Rank < 0 || int(ev.Rank) >= set.Ranks() ||
							ev.Seq < 0 || ev.Seq >= int64(len(set.Traces[ev.Rank].Events)) {
							t.Fatalf("%s names (%d, %d), outside the trace", ev.Kind, ev.Rank, ev.Seq)
						}
						got := set.Get(ev.ID())
						if got.Kind != ev.Kind || got.File != ev.File || got.Line != ev.Line || got.Func != ev.Func {
							t.Errorf("rank %d seq %d: report names %s at %s, trace holds %s at %s",
								ev.Rank, ev.Seq, ev.Kind, ev.Loc(), got.Kind, got.Loc())
						}
					}
				}
			})
		}
	}
}

// TestStreamWitnessMatchesOffline: the online witness of stride-overlap,
// whose epoch opens with a fence from an earlier slab, is the offline
// one, step for step.
func TestStreamWitnessMatchesOffline(t *testing.T) {
	var bc apps.BugCase
	for _, c := range apps.AllCases() {
		if c.Name == "stride-overlap" {
			bc = c
		}
	}
	if bc.Buggy == nil {
		t.Fatal("no stride-overlap case")
	}
	online, set := runOnline(t, bc.Ranks, bc.Buggy)
	offline, err := core.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(online.Violations) != 1 || len(offline.Violations) != 1 {
		t.Fatalf("want one violation each; online:\n%s\noffline:\n%s", online, offline)
	}
	on, off := online.Violations[0], offline.Violations[0]
	if on.A.ID() != off.A.ID() || on.B.ID() != off.B.ID() {
		t.Errorf("operands online %v, %v; offline %v, %v", on.A.ID(), on.B.ID(), off.A.ID(), off.B.ID())
	}
	if got, want := fmt.Sprint(on.Witness), fmt.Sprint(off.Witness); got != want {
		t.Errorf("online witness:\n%s\noffline witness:\n%s", got, want)
	}
}

// eachCase runs check on the online report and the offline report of the
// same run of every bundled program, buggy and fixed.
func eachCase(t *testing.T, check func(t *testing.T, online, offline *core.Report)) {
	for _, bc := range apps.AllCases() {
		for _, v := range []struct {
			name string
			body func(p *mpi.Proc) error
		}{{"buggy", bc.Buggy}, {"fixed", bc.Fixed}} {
			t.Run(bc.Name+"/"+v.name, func(t *testing.T) {
				online, set := runOnline(t, min(bc.Ranks, 8), v.body)
				offline, err := core.Analyze(set)
				if err != nil {
					t.Fatal(err)
				}
				check(t, online, offline)
			})
		}
	}
}

// TestStreamTotalsMatchOffline: the online report counts each trace
// event, region and epoch once, whatever a slab re-injects.
func TestStreamTotalsMatchOffline(t *testing.T) {
	eachCase(t, func(t *testing.T, online, offline *core.Report) {
		if online.EventsAnalyzed != offline.EventsAnalyzed || online.Regions != offline.Regions ||
			online.EpochsChecked != offline.EpochsChecked {
			t.Errorf("online analyzed %d events, %d regions, %d epochs; offline %d, %d, %d",
				online.EventsAnalyzed, online.Regions, online.EpochsChecked,
				offline.EventsAnalyzed, offline.Regions, offline.EpochsChecked)
		}
	})
}

// TestStreamCountersMatchOffline: an online run's analysis counters
// equal those of an offline analysis of the same trace: the merged
// report's totals are recorded once, not each slab's.
func TestStreamCountersMatchOffline(t *testing.T) {
	counters := []string{
		"mcchecker_analysis_events_total", "mcchecker_analysis_regions_total",
		"mcchecker_analysis_epochs_total", "mcchecker_analysis_violations_total",
	}
	for _, bc := range apps.AllCases() {
		for _, v := range []struct {
			name string
			body func(p *mpi.Proc) error
		}{{"buggy", bc.Buggy}, {"fixed", bc.Fixed}} {
			t.Run(bc.Name+"/"+v.name, func(t *testing.T) {
				online := obs.NewRegistry()
				_, set := runOnlineObs(t, min(bc.Ranks, 8), v.body, online)
				offline := obs.NewRegistry()
				opts := core.DefaultOptions()
				opts.Obs = offline
				if _, err := core.AnalyzeWith(set, opts); err != nil {
					t.Fatal(err)
				}
				on, off := online.Snapshot(), offline.Snapshot()
				for _, name := range counters {
					if a, b := on.CounterValue(name), off.CounterValue(name); a != b {
						t.Errorf("%s = %d online, %d offline", name, a, b)
					}
				}
			})
		}
	}
}

// TestStreamRegionsMatchOffline: each online violation carries the trace
// region of the offline violation with the same key, and the witness
// steps that open and close it name the same events and region number.
func TestStreamRegionsMatchOffline(t *testing.T) {
	eachCase(t, sameRegions)
}

// TestStreamRegionOpensInEarlierSlab: a race on a sub-communicator window
// right after a world barrier sits in a slab that re-injects no region
// delimiter, so the slab's witness has no step opening the region; the
// online report adds the barrier, as offline names it.
func TestStreamRegionOpensInEarlierSlab(t *testing.T) {
	online, set := runOnline(t, 4, func(p *mpi.Proc) error {
		sub := p.CommSplit(p.CommWorld(), p.Rank()%2, p.Rank())
		buf := p.Alloc(64, "subwin")
		w := p.WinCreate(buf, 1, sub)
		w.Fence(mpi.AssertNone)
		p.Barrier(p.CommWorld()) // a clean boundary: the race below is in the next slab
		if sub.RankOf(p) == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		} else {
			buf.SetInt64(0, 1)
		}
		w.Fence(mpi.AssertNone)
		p.Barrier(p.CommWorld())
		w.Free()
		return nil
	})
	offline, err := core.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if len(online.Violations) == 0 {
		t.Fatalf("race not reported online; offline:\n%s", offline)
	}
	sameRegions(t, online, offline)
	for _, v := range online.Violations {
		if st := v.Witness[0]; st.Ev.Kind != trace.KindBarrier || !strings.HasPrefix(st.Role, fmt.Sprintf("region %d opens", v.Region)) {
			t.Errorf("%s: witness opens with %s — %s, want the barrier opening region %d", v.Key(), st.Ev.Kind, st.Role, v.Region)
		}
	}
}

// sameRegions fails unless each online violation has the region of the
// offline violation with the same key, and the same witness steps naming
// regions: event, region number and role.
func sameRegions(t *testing.T, online, offline *core.Report) {
	t.Helper()
	regionSteps := func(v *core.Violation) []string {
		var out []string
		for _, st := range v.Witness {
			if strings.HasPrefix(st.Role, "region ") {
				out = append(out, fmt.Sprintf("rank %d seq %d %s: %s", st.Ev.Rank, st.Ev.Seq, st.Ev.Kind, st.Role))
			}
		}
		return out
	}
	byKey := map[string]*core.Violation{}
	for _, v := range offline.Violations {
		byKey[v.Key()] = v
	}
	for _, on := range online.Violations {
		off, ok := byKey[on.Key()]
		if !ok {
			t.Errorf("online violation %s has no offline counterpart", on.Key())
			continue
		}
		if on.Region != off.Region {
			t.Errorf("%s: online region %d, offline %d", on.Key(), on.Region, off.Region)
		}
		if got, want := regionSteps(on), regionSteps(off); !slices.Equal(got, want) {
			t.Errorf("%s: online region steps\n%s\noffline\n%s", on.Key(),
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// twoWindowRace creates two world windows and runs one racy fence epoch
// on each from the same source lines: rank 0 Puts into rank 1's first
// word while rank 1 stores to it. The two conflicts differ only in their
// window.
func twoWindowRace(p *mpi.Proc) error {
	var bufs [2]*memory.Buffer
	var wins [2]*mpi.Win
	for i := range wins {
		bufs[i] = p.Alloc(8, "win")
		wins[i] = p.WinCreate(bufs[i], 1, p.CommWorld())
	}
	for i, w := range wins {
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "src")
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		} else {
			bufs[i].SetInt64(0, 1)
		}
		w.Fence(mpi.AssertNone)
	}
	for _, w := range wins {
		w.Free()
	}
	return nil
}

// TestStreamTwoWindows: a window created after the first slab is defined
// once in the slab that holds it, and conflicts on two windows stay two
// violations online, as they are offline.
func TestStreamTwoWindows(t *testing.T) {
	s, b, slabs := runBoth(t, 2, twoWindowRace)
	if len(b.Violations) != 2 || b.Violations[0].Win == b.Violations[1].Win {
		t.Fatalf("batch report: want one violation on each of two windows:\n%s", b)
	}
	sameViolations(t, s, b)
	if slabs < 2 {
		t.Errorf("slabs = %d; the second window must be created after the first slab", slabs)
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
	if unclean := snap.CounterValue("mcchecker_stream_boundaries_total", "result", "unclean"); unclean == 0 {
		t.Error("open lock epoch across a barrier must count an unclean boundary")
	}
}

func TestStreamRankOutOfRange(t *testing.T) {
	sc := New(2, nil)
	sc.Emit(trace.Event{Kind: trace.KindBarrier, Rank: 5})
	if _, err := sc.Finish(); err == nil {
		t.Error("expected rank-out-of-range error")
	}
}
