package profiler

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runEmulateLike runs a 2-rank program with one window put and local
// accesses on two buffers, returning the collected trace set.
func runEmulateLike(t *testing.T, relevant Relevance) *trace.Set {
	t.Helper()
	sink := trace.NewMemorySink()
	pr := New(sink, relevant)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(16, "window")
		scratch := p.Alloc(16, "scratch")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "srcbuf")
			src.SetInt64(0, 5)     // store on srcbuf
			scratch.SetInt64(0, 1) // store on scratch
			_ = scratch.Int64At(0) // load on scratch
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func countKind(set *trace.Set, rank int32, k trace.Kind) int {
	n := 0
	for _, ev := range set.Traces[rank].Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

func TestFullInstrumentationSeesAllAccesses(t *testing.T) {
	set := runEmulateLike(t, nil)
	if got := countKind(set, 0, trace.KindStore); got != 2 {
		t.Errorf("stores = %d, want 2", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 1 {
		t.Errorf("loads = %d, want 1", got)
	}
}

func TestSelectiveInstrumentationFilters(t *testing.T) {
	// ST-Analyzer-style report: only the window and the put origin matter.
	set := runEmulateLike(t, FromNames([]string{"window", "srcbuf"}))
	if got := countKind(set, 0, trace.KindStore); got != 1 {
		t.Errorf("stores = %d, want 1 (scratch must be filtered)", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 0 {
		t.Errorf("loads = %d, want 0", got)
	}
	// MPI call events are always logged regardless of relevance.
	if got := countKind(set, 0, trace.KindPut); got != 1 {
		t.Errorf("puts = %d", got)
	}
	if got := countKind(set, 1, trace.KindWinFence); got != 2 {
		t.Errorf("fences on rank 1 = %d", got)
	}
}

func TestEventOrderInterleavesCallsAndAccesses(t *testing.T) {
	set := runEmulateLike(t, nil)
	// On rank 0 the program order is:
	// WinCreate, Fence, store(srcbuf), store(scratch), load(scratch), Put, Fence, Free.
	var kinds []trace.Kind
	for _, ev := range set.Traces[0].Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{
		trace.KindWinCreate, trace.KindWinFence,
		trace.KindStore, trace.KindStore, trace.KindLoad,
		trace.KindPut, trace.KindWinFence, trace.KindWinFree,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestAccessEventsCarryLocation(t *testing.T) {
	set := runEmulateLike(t, nil)
	for _, ev := range set.Traces[0].Events {
		if ev.Kind.IsLocalAccess() {
			if !strings.HasSuffix(ev.File, "profiler_test.go") || ev.Line == 0 {
				t.Errorf("access without app location: %v", ev.String())
			}
		}
	}
}

func TestFromNames(t *testing.T) {
	r := FromNames([]string{"a", "b"})
	if !r("a") || !r("b") || r("c") || r("") {
		t.Error("FromNames predicate wrong")
	}
}

// A nil Relevance instruments every buffer, unlike FromNames(nil), which
// instruments nothing.
func TestAllInstrumentsEveryBuffer(t *testing.T) {
	none := FromNames(nil)
	if none("anything") {
		t.Error("FromNames(nil) must accept nothing")
	}
	set := runEmulateLike(t, nil)
	if got := countKind(set, 0, trace.KindStore); got != 2 {
		t.Errorf("stores under a nil Relevance = %d, want 2", got)
	}
	if got := countKind(set, 0, trace.KindLoad); got != 1 {
		t.Errorf("loads under a nil Relevance = %d, want 1", got)
	}
}

// TestMPICallNoAllocWithoutRegistry guards the emit hot path: with no
// observability registry attached, logging an MPI call event must not
// allocate (the disabled instrumentation is a nil check, nothing more).
func TestMPICallNoAllocWithoutRegistry(t *testing.T) {
	pr := New(trace.NewCountingSink(nil), nil)
	ev := trace.Event{Kind: trace.KindBarrier, Rank: 0}
	if allocs := testing.AllocsPerRun(1000, func() {
		pr.MPICall(nil, ev)
	}); allocs != 0 {
		t.Errorf("MPICall allocates %.1f times per event with nil registry, want 0", allocs)
	}
}

// TestCountersOnlyForEmittingRanks: rank goroutines that emit their first
// events at once each get a dense sequence of their own, the counter table
// grows only to cover the ranks that emitted, and a rank at MaxRanks still
// panics.
func TestCountersOnlyForEmittingRanks(t *testing.T) {
	sink := trace.NewMemorySink()
	pr := New(sink, nil)
	const per = 50
	ranks := []int32{63, 0, 17, 40, 5} // sparse, highest first
	var wg sync.WaitGroup
	for _, r := range ranks {
		wg.Add(1)
		go func(r int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pr.MPICall(nil, trace.Event{Kind: trace.KindBarrier, Rank: r})
			}
		}(r)
	}
	wg.Wait()
	set := sink.Set()
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range ranks {
		if n := len(set.Traces[r].Events); n != per {
			t.Errorf("rank %d: %d events, want %d", r, n, per)
		}
	}
	table := pr.counters()
	if len(table) != 64 {
		t.Errorf("counter table covers %d ranks, want 64", len(table))
	}
	added := 0
	for _, c := range table {
		if c != nil {
			added++
		}
	}
	if added != len(ranks) {
		t.Errorf("%d counters allocated for %d emitting ranks", added, len(ranks))
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "exceeds MaxRanks") {
			t.Errorf("rank MaxRanks: recovered %q, want the MaxRanks panic", msg)
		}
	}()
	pr.MPICall(nil, trace.Event{Kind: trace.KindBarrier, Rank: MaxRanks})
}

func TestObsCountersMatchTrace(t *testing.T) {
	reg := obs.NewRegistry()
	sink := trace.NewMemorySink()
	pr := NewObs(sink, FromNames([]string{"window", "srcbuf"}), reg)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		win := p.Alloc(16, "window")
		scratch := p.Alloc(16, "scratch")
		w := p.WinCreate(win, 1, p.CommWorld())
		w.Fence(mpi.AssertNone)
		if p.Rank() == 0 {
			src := p.Alloc(8, "srcbuf")
			src.SetInt64(0, 5)
			scratch.SetInt64(0, 1)
			w.Put(src, 0, 1, mpi.Int64, 1, 0, 1, mpi.Int64)
		}
		w.Fence(mpi.AssertNone)
		w.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sink.Set()
	snap := reg.Snapshot()

	// Per-kind counters must agree with the trace the sink collected.
	for _, k := range []trace.Kind{trace.KindWinFence, trace.KindPut, trace.KindStore} {
		want := int64(countKind(set, 0, k) + countKind(set, 1, k))
		if got := snap.CounterValue("mcchecker_profiler_events_total", "kind", k.String()); got != want {
			t.Errorf("events_total{kind=%q} = %d, want %d", k, got, want)
		}
	}
	// Relevance: window+srcbuf hit (window twice: once per rank), scratch
	// misses on both ranks.
	if hits := snap.CounterValue("mcchecker_profiler_relevance_total", "result", "hit"); hits != 3 {
		t.Errorf("relevance hits = %d, want 3", hits)
	}
	if misses := snap.CounterValue("mcchecker_profiler_relevance_total", "result", "miss"); misses != 2 {
		t.Errorf("relevance misses = %d, want 2", misses)
	}
	// Exact per-rank totals come from the collector.
	for rank := int32(0); rank < 2; rank++ {
		want := int64(len(set.Traces[rank].Events))
		got := snap.GaugeValue("mcchecker_profiler_rank_events", "rank", strconv.Itoa(int(rank)))
		if got != want {
			t.Errorf("rank_events{rank=%d} = %d, want %d", rank, got, want)
		}
	}
}

func TestCountingSinkIntegration(t *testing.T) {
	sink := trace.NewCountingSink(nil)
	pr := New(sink, nil)
	err := mpi.Run(2, mpi.Options{Hook: pr}, func(p *mpi.Proc) error {
		b := p.Alloc(8, "x")
		b.SetInt64(0, 1)
		p.Barrier(p.CommWorld())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.LoadStore != 2 || st.Collect != 2 {
		t.Errorf("stats = %+v", st)
	}
}
